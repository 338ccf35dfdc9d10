package store

import (
	"path/filepath"
	"testing"
)

func BenchmarkMemSave(b *testing.B) {
	var m Mem
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Save(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemFetch(b *testing.B) {
	var m Mem
	_ = m.Save(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Fetch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellSave measures the paper's T_save on this machine's
// filesystem — the numerator of the §4 sizing rule K = ceil(T_save/T_send) —
// as a gateway pays it: one cell's Save on a journal lane, append plus group
// commit, with and without the fsync.
func BenchmarkCellSave(b *testing.B) {
	for _, tt := range []struct {
		name string
		opts []LanesOption
	}{
		{"fsync", nil},
		{"nosync", []LanesOption{LanesWithoutSync()}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			j, err := openLane(filepath.Join(b.TempDir(), "lane.log"), tt.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			c := j.Cell("tx/00000001")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Save(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPoolOfOneThroughput(b *testing.B) {
	var m Mem
	p := NewSaverPool(1)
	a := p.Saver(&m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.StartSave(uint64(i), nil)
	}
	p.Close()
}

// BenchmarkOpenLanes measures a cold start's replay: reopening a default
// medium whose 2,048 SA keys were each saved 50 times. "live" wrote it with
// the default compaction threshold, so frames/op is what a reopen replays;
// "history" wrote it with compaction off, so every save is replayed and
// ns/frame is the replay loop's cost per frame.
func BenchmarkOpenLanes(b *testing.B) {
	for _, bb := range []struct {
		name      string
		compactAt int64
	}{
		{"live", DefaultCompactAt},
		{"history", 0},
	} {
		b.Run(bb.name, func(b *testing.B) {
			dir := b.TempDir()
			fillLanes(b, dir, 2048, 50, LanesCompactAt(bb.compactAt))
			var frames uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := OpenLanes(dir, LanesWithoutSync())
				if err != nil {
					b.Fatal(err)
				}
				frames += l.RecoveryStats().FramesReplayed
				l.Close()
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
		})
	}
}
