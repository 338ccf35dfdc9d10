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

// BenchmarkFileSave measures the paper's T_save on this machine's
// filesystem — the numerator of the §4 sizing rule K = ceil(T_save/T_send).
func BenchmarkFileSave(b *testing.B) {
	for _, tt := range []struct {
		name string
		opts []FileOption
	}{
		{"fsync", nil},
		{"nosync", []FileOption{WithoutSync()}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			f := NewFile(filepath.Join(b.TempDir(), "seq.dat"), tt.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Save(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFileFetch(b *testing.B) {
	f := NewFile(filepath.Join(b.TempDir(), "seq.dat"))
	if err := f.Save(7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Fetch(); err != nil {
			b.Fatal(err)
		}
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
