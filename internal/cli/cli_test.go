package cli

import (
	"errors"
	"math"
	"testing"

	"repro/internal/pieceset"
)

func TestParseGamma(t *testing.T) {
	if g, err := ParseGamma("2.5"); err != nil || g != 2.5 {
		t.Errorf("ParseGamma(2.5) = %v, %v", g, err)
	}
	for _, s := range []string{"inf", "Inf", " INF "} {
		if g, err := ParseGamma(s); err != nil || !math.IsInf(g, 1) {
			t.Errorf("ParseGamma(%q) = %v, %v", s, g, err)
		}
	}
	if _, err := ParseGamma("abc"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad gamma err = %v", err)
	}
}

func TestParsePieces(t *testing.T) {
	tests := []struct {
		in   string
		want pieceset.Set
	}{
		{"", pieceset.Empty},
		{"empty", pieceset.Empty},
		{"{}", pieceset.Empty},
		{"1", pieceset.MustOf(1)},
		{"1, 3 ,4", pieceset.MustOf(1, 3, 4)},
	}
	for _, tt := range tests {
		got, err := ParsePieces(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParsePieces(%q) = %v, %v", tt.in, got, err)
		}
	}
	for _, bad := range []string{"x", "0", "1,,2", "99"} {
		if _, err := ParsePieces(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParsePieces(%q) err = %v", bad, err)
		}
	}
}

func TestParseArrival(t *testing.T) {
	c, rate, err := ParseArrival("1,2=0.5")
	if err != nil || c != pieceset.MustOf(1, 2) || rate != 0.5 {
		t.Errorf("ParseArrival = %v, %v, %v", c, rate, err)
	}
	c, rate, err = ParseArrival("empty=2")
	if err != nil || c != pieceset.Empty || rate != 2 {
		t.Errorf("ParseArrival(empty) = %v, %v, %v", c, rate, err)
	}
	// "=1" is legal: it denotes the empty type at rate 1.
	if c, rate, err := ParseArrival("=1"); err != nil || c != pieceset.Empty || rate != 1 {
		t.Errorf(`ParseArrival("=1") = %v, %v, %v`, c, rate, err)
	}
	for _, bad := range []string{"1,2", "1=x", "z=1"} {
		if _, _, err := ParseArrival(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseArrival(%q) err = %v", bad, err)
		}
	}
}

func TestArrivalFlags(t *testing.T) {
	var a ArrivalFlags
	if a.String() != "" {
		t.Error("empty flags must render empty")
	}
	if err := a.Set("1=0.5"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("1=0.25"); err != nil { // accumulates
		t.Fatal(err)
	}
	if err := a.Set("empty=1"); err != nil {
		t.Fatal(err)
	}
	if a.Lambda[pieceset.MustOf(1)] != 0.75 {
		t.Errorf("accumulated rate = %v", a.Lambda[pieceset.MustOf(1)])
	}
	if a.String() == "" {
		t.Error("non-empty flags must render")
	}
	if err := a.Set("bogus"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestBuildParams(t *testing.T) {
	var a ArrivalFlags
	p, err := BuildParams(2, 1, 1, 2, 1.5, &a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lambda[pieceset.Empty] != 1.5 {
		t.Error("default empty arrivals not applied")
	}
	if err := a.Set("1=0.5"); err != nil {
		t.Fatal(err)
	}
	p, err = BuildParams(2, 1, 1, 2, 1.5, &a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lambda[pieceset.Empty] != 0 || p.Lambda[pieceset.MustOf(1)] != 0.5 {
		t.Error("explicit arrivals must replace the default")
	}
	if _, err := BuildParams(0, 1, 1, 2, 1, &ArrivalFlags{}); err == nil {
		t.Error("invalid K accepted")
	}
}
