package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	for _, c := range []struct {
		list string
		want []int64
		bad  string // the value the error names; "" for success
	}{
		{list: "", want: nil},
		{list: "7", want: []int64{7}},
		{list: "20,22", want: []int64{20, 22}},
		{list: " 1 , -2 ,3 ", want: []int64{1, -2, 3}},
		{list: "9223372036854775807", want: []int64{9223372036854775807}},
		{list: "1,x", bad: `"x"`},
		{list: "x,1", bad: `"x"`},
		{list: "1,,2", bad: `""`},
		{list: "1.5", bad: `"1.5"`},
		{list: "9223372036854775808", bad: `"9223372036854775808"`},
	} {
		got, err := parseInts(c.list)
		if c.bad != "" {
			if err == nil || !strings.Contains(err.Error(), c.bad) {
				t.Errorf("parseInts(%q) = %v, %v; want an error naming %s", c.list, got, err, c.bad)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", c.list, got, err, c.want)
		}
	}
}

func TestSplitSeeds(t *testing.T) {
	for _, c := range []struct {
		list string
		want []string
	}{
		{"", nil},
		{"127.0.0.1:7001", []string{"127.0.0.1:7001"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , ,b:2, ", []string{"a:1", "b:2"}},
		{",,", nil},
	} {
		if got := splitSeeds(c.list); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitSeeds(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}

// TestBadArgsRefused: eval and fetch reject a bad -args value before they
// dial anyone, and the error names it. main exits 1 on that error.
func TestBadArgsRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"eval", cmdEval, []string{"-to", "127.0.0.1:1", "-src", "unread.s", "-args", "1,x"}},
		{"fetch", cmdFetch, []string{"-to", "127.0.0.1:1", "-args", "1,x"}},
	} {
		err := c.run(c.args)
		if err == nil || !strings.HasPrefix(err.Error(), c.name+": ") || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("%s -args 1,x: %v; want an error naming \"x\"", c.name, err)
		}
	}
}
