package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csdm/internal/geo"
)

// writeTenStays writes a store of 10 stays in 5 chunks of 2 and returns
// its path and size.
func writeTenStays(t testing.TB, dir string) (string, int64) {
	t.Helper()
	path := filepath.Join(dir, "stays.csdstay")
	w, err := CreateStayStore(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Add(geo.Point{Lon: 121.4 + float64(i)*1e-3, Lat: 31.2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// TestOpenStayStoreRejectsTruncatedChunkHeader cuts the file inside the
// last chunk's header; the store used to open with the first 8 stays.
func TestOpenStayStoreRejectsTruncatedChunkHeader(t *testing.T) {
	path, size := writeTenStays(t, t.TempDir())
	lastChunk := size - int64(chunkHeaderSize+2*16)
	if err := os.Truncate(path, lastChunk+10); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStayStore(path)
	if err == nil {
		s.Close()
		t.Fatalf("truncated store opened with Len %d", s.Len())
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
}

// TestOpenStayStoreRejectsTruncatedChunkData cuts the file inside the
// last chunk's coordinate columns; the store used to open with all 10
// stays and fail only when LoadRect reached the missing bytes.
func TestOpenStayStoreRejectsTruncatedChunkData(t *testing.T) {
	path, size := writeTenStays(t, t.TempDir())
	if err := os.Truncate(path, size-5); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStayStore(path)
	if err == nil {
		s.Close()
		t.Fatalf("truncated store opened with Len %d", s.Len())
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
}

// FuzzOpenStayStore feeds arbitrary bytes to OpenStayStore. A store
// that opens must serve a LoadRect over the whole world with exactly
// Len stays in ascending id order.
func FuzzOpenStayStore(f *testing.F) {
	dir := f.TempDir()
	path, _ := writeTenStays(f, dir)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(seed[:stayHeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.csdstay")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStayStore(path)
		if err != nil {
			return
		}
		defer s.Close()
		if s.Len() > len(data)/16 {
			t.Fatalf("Len %d exceeds what %d bytes can hold", s.Len(), len(data))
		}
		world := geo.Rect{Min: geo.Point{Lon: -180, Lat: -90}, Max: geo.Point{Lon: 180, Lat: 90}}
		ids, pp, err := s.LoadRect(world)
		if err != nil {
			t.Fatalf("LoadRect on an opened store: %v", err)
		}
		if len(ids) > s.Len() || pp.Len() != len(ids) {
			t.Fatalf("LoadRect returned %d ids, %d points for Len %d", len(ids), pp.Len(), s.Len())
		}
		for k := 1; k < len(ids); k++ {
			if ids[k] <= ids[k-1] {
				t.Fatalf("ids not ascending at %d: %d after %d", k, ids[k], ids[k-1])
			}
		}
	})
}
