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
