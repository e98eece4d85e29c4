package pattern

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"csdm/internal/geo"
	"csdm/internal/poi"
	"csdm/internal/trajectory"
)

func samplePatterns() []Pattern {
	t0 := time.Date(2024, 3, 1, 8, 30, 0, 0, time.UTC)
	sem := poi.SemanticsOf(poi.ShopMarket)
	return []Pattern{
		{
			Stays: []trajectory.StayPoint{
				{P: geo.Point{Lon: 121.47, Lat: 31.23}, T: t0, S: sem},
				{P: geo.Point{Lon: 121.48, Lat: 31.24}, T: t0.Add(time.Hour), S: sem},
			},
			Items:   []poi.Semantics{sem, sem},
			Support: 7,
		},
		{
			Stays:   []trajectory.StayPoint{{P: geo.Point{Lon: 121.50, Lat: 31.20}, T: t0}},
			Items:   []poi.Semantics{sem},
			Support: 3,
		},
	}
}

func TestPatternJSONRoundTrip(t *testing.T) {
	want := samplePatterns()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d patterns, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Support != want[i].Support {
			t.Errorf("pattern %d support = %d, want %d", i, got[i].Support, want[i].Support)
		}
		if len(got[i].Stays) != len(want[i].Stays) {
			t.Fatalf("pattern %d stays = %d, want %d", i, len(got[i].Stays), len(want[i].Stays))
		}
		for k := range want[i].Stays {
			if got[i].Stays[k].P != want[i].Stays[k].P {
				t.Errorf("pattern %d stay %d point = %v, want %v", i, k, got[i].Stays[k].P, want[i].Stays[k].P)
			}
			if !got[i].Stays[k].T.Equal(want[i].Stays[k].T) {
				t.Errorf("pattern %d stay %d time = %v, want %v", i, k, got[i].Stays[k].T, want[i].Stays[k].T)
			}
			if got[i].Stays[k].S != want[i].Stays[k].S {
				t.Errorf("pattern %d stay %d semantics = %v, want %v", i, k, got[i].Stays[k].S, want[i].Stays[k].S)
			}
		}
		if len(got[i].Items) != len(want[i].Items) {
			t.Errorf("pattern %d items = %d, want %d", i, len(got[i].Items), len(want[i].Items))
		}
		// Groups are deliberately not persisted.
		if got[i].Groups != nil {
			t.Errorf("pattern %d Groups survived serialization", i)
		}
	}
}

func TestPatternJSONEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d patterns from an empty set", len(got))
	}
}

func TestPatternJSONRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", `{{{`},
		{"wrong version", `{"version":99,"patterns":[]}`},
		{"no stays", `{"version":1,"patterns":[{"stays":[],"support":1}]}`},
		{"negative support", `{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23}}],"support":-1}]}`},
		{"nan-free but out of range", `{"version":1,"patterns":[{"stays":[{"p":{"lon":999,"lat":31.23}}],"support":1}]}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadJSON accepted corrupt input", tc.name)
		}
	}
}

// FuzzPatternReadJSON pins the pattern loader's contract: ReadJSON on
// arbitrary bytes returns an error or a pattern set — never a panic —
// and every set it accepts survives WriteJSON → ReadJSON unchanged.
func FuzzPatternReadJSON(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteJSON(&valid, samplePatterns()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"version":1,"patterns":[]}`))
	f.Add([]byte(`{"version":1,"patterns":[{"stays":[{"p":{"lon":121.47,"lat":31.23},"t":"2024-03-01T08:30:00+08:00","s":3}],"items":[3],"support":2}]}`))
	f.Add([]byte(`{"version":1,"patterns":[{"stays":[{"p":{"lon":999,"lat":0}}],"support":1}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, ps); err != nil {
			t.Fatalf("rewrite of accepted patterns: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("reread of accepted patterns: %v", err)
		}
		if len(again) != len(ps) {
			t.Fatalf("round trip: %d patterns, want %d", len(again), len(ps))
		}
		for i := range ps {
			if !samePattern(again[i], ps[i]) {
				t.Fatalf("round trip changed pattern %d:\n got %+v\nwant %+v", i, again[i], ps[i])
			}
		}
	})
}

// samePattern compares the persisted fields of two patterns; stay
// times compare as instants.
func samePattern(a, b Pattern) bool {
	if a.Support != b.Support || len(a.Stays) != len(b.Stays) || !slices.Equal(a.Items, b.Items) {
		return false
	}
	for k := range a.Stays {
		x, y := a.Stays[k], b.Stays[k]
		if x.P != y.P || x.S != y.S || !x.T.Equal(y.T) {
			return false
		}
	}
	return true
}
