package main

import "testing"

func TestParseRackList(t *testing.T) {
	got, err := parseRackList("30, 1000,7100")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{30, 1000, 7100}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if got, err := parseRackList(""); err != nil || got != nil {
		t.Errorf("empty list: got %v, %v", got, err)
	}
	for _, bad := range []string{"30,x", "0", "-5", "30,,40"} {
		if _, err := parseRackList(bad); err == nil {
			t.Errorf("parseRackList(%q) accepted invalid input", bad)
		}
	}
}
