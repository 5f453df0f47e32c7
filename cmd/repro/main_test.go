package main

import (
	"flag"
	"strings"
	"testing"
)

// parseArgs resets every repro flag to its default and parses args on a
// fresh FlagSet bound to the same variables, so flag.Visit inside
// checkFlags sees only what args set. The process FlagSet and the flag
// defaults are restored when the test ends.
func parseArgs(t *testing.T, args ...string) {
	t.Helper()
	saved := flag.CommandLine
	resetFlags(t, saved)
	t.Cleanup(func() {
		flag.CommandLine = saved
		resetFlags(t, saved)
	})
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	saved.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	flag.CommandLine = fs
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
}

// resetFlags sets every repro flag in fs back to its default, leaving the
// testing package's own flags alone.
func resetFlags(t *testing.T, fs *flag.FlagSet) {
	t.Helper()
	fs.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", f.Name, err)
		}
	})
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error; "" means accepted
	}{
		{"defaults", nil, ""},
		{"csv alone", []string{"-csv", "out"}, ""},
		{"one shard", []string{"-only", "fig14", "-cache-dir", "c", "-shards", "2", "-shard-index", "1"}, ""},
		{"shards default index", []string{"-cache-dir", "c", "-shards", "2"}, ""},
		{"merge with csv", []string{"-cache-dir", "c", "-merge", "-csv", "out"}, ""},

		{"negative shards", []string{"-cache-dir", "c", "-shards", "-2"}, "-shards -2"},
		{"lone shard-index", []string{"-cache-dir", "c", "-shard-index", "3"}, "-shard-index needs -shards"},
		{"lone shard-index zero", []string{"-shard-index", "0"}, "-shard-index needs -shards"},
		{"shard-index with merge", []string{"-cache-dir", "c", "-merge", "-shard-index", "1"}, "-shard-index needs -shards"},
		{"shards with merge", []string{"-cache-dir", "c", "-shards", "2", "-merge"}, "mutually exclusive"},
		{"shards with csv", []string{"-cache-dir", "c", "-shards", "2", "-csv", "out"}, "-csv needs a full grid"},
		{"index out of range", []string{"-cache-dir", "c", "-shards", "2", "-shard-index", "2"}, "outside [0, 2)"},
		{"negative index", []string{"-cache-dir", "c", "-shards", "2", "-shard-index", "-1"}, "outside [0, 2)"},
		{"shards without cache-dir", []string{"-shards", "2"}, "need -cache-dir"},
		{"merge without cache-dir", []string{"-merge"}, "need -cache-dir"},
		{"shards on a non-sweep figure", []string{"-cache-dir", "c", "-shards", "2", "-only", "fig5"}, "fig14/fig15"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parseArgs(t, tc.args...)
			err := checkFlags()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("%q rejected: %v", tc.args, err)
			case tc.want != "" && err == nil:
				t.Fatalf("%q accepted, want an error containing %q", tc.args, tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("%q: error %q does not contain %q", tc.args, err, tc.want)
			}
		})
	}
}
