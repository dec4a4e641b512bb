package service

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/engine"
)

// wireCases builds one response per rung plus one explain response, each
// from a hand-made ladder outcome with fixed timings, through the same
// conversion the server uses.
func wireCases() []struct {
	name string
	resp *Response
} {
	summary := &core.Summary{
		Encoded:    "P \t\x00F",
		Readable:   `strspn(" \t"); return`,
		C:          "char *f_summary(char *s) {\n  return s + strspn(s, \" \\t\");\n}\n",
		Memoryless: true,
		Direction:  "forward",
		Elapsed:    7 * time.Millisecond,
	}
	budgetErr := errors.New("core: no summary found within the budget: engine: budget exhausted")
	full := fromOutcome(core.Outcome{
		Rung:     core.RungFull,
		Summary:  summary,
		Attempts: make([]core.AttemptRecord, 1),
	}, core.RungFull)
	full.ElapsedNs, full.QueueWaitNs = 12_345_678, 9_000

	memoryless := fromOutcome(core.Outcome{
		Rung: core.RungMemoryless,
		Memoryless: &core.MemorylessReport{
			Memoryless: false,
			Reason:     "loop reads s[i+1] after s[i]",
			Elapsed:    3 * time.Millisecond,
		},
		Attempts: make([]core.AttemptRecord, 3),
		Err:      budgetErr,
	}, core.RungFull)
	memoryless.ElapsedNs, memoryless.QueueWaitNs = 2_000_000, 0

	covering := fromOutcome(core.Outcome{
		Rung: core.RungCovering,
		Covering: []core.TestInput{
			{Input: "b", Null: true}, {Input: "a\"b", Offset: 1}, {Input: ""},
		},
		Attempts: make([]core.AttemptRecord, 2),
		Err:      errors.New("supervise: panic: injected"),
	}, core.RungMemoryless)
	covering.ElapsedNs, covering.QueueWaitNs = 500, 40

	smoke := fromOutcome(core.Outcome{
		Rung:     core.RungSmoke,
		Smoke:    []core.TestInput{{Input: "a\nb", Offset: 1}, {Input: "", Null: true}},
		Attempts: make([]core.AttemptRecord, 1),
	}, core.RungSmoke)
	smoke.ElapsedNs, smoke.QueueWaitNs = 1_000, 2_000

	first := engine.Spend{Conflicts: 3, Nodes: 120, QCacheMisses: 2, DiskMisses: 1}
	second := engine.Spend{Conflicts: 9, Propagations: 40, Nodes: 800, QCacheHits: 5, QCacheMisses: 1}
	explained := core.Outcome{
		Rung:    core.RungFull,
		Summary: summary,
		Attempts: []core.AttemptRecord{
			{Rung: core.RungFull, Err: budgetErr, Spend: &first, Elapsed: 10 * time.Millisecond},
			{Rung: core.RungFull, Spend: &second, Elapsed: 29 * time.Millisecond},
		},
	}
	explain := fromOutcome(explained, core.RungFull)
	explain.ElapsedNs, explain.QueueWaitNs = 40_000_000, 1_500
	explain.Provenance = &Provenance{
		TraceID:      "00000000000000ab",
		StartRung:    "full",
		FinalRung:    "full",
		FloorRung:    "full",
		LoadFraction: 0.25,
		P99SignalNs:  4_096,
		Attempts:     attemptProvenance(explained.Attempts),
		Totals:       explained.Spend(),
		Reconciled:   true,
	}
	return []struct {
		name string
		resp *Response
	}{
		{"full", full}, {"memoryless", memoryless}, {"covering", covering},
		{"smoke", smoke}, {"explain", explain},
	}
}

// wireGolden is every wire case's JSON body and VerdictKey. loopsum
// -server, the chaos soak and the load harness all decode these bytes, so
// a change here is a protocol change.
var wireGolden = map[string]struct{ json, key string }{
	"full": {
		`{"rung":"full","start_rung":"full","summary":{"encoded":"P \t\u0000F","readable":"strspn(\" \\t\"); return","c":"char *f_summary(char *s) {\n  return s + strspn(s, \" \\t\");\n}\n","memoryless":true,"direction":"forward"},"attempts":1,"elapsed_ns":12345678,"queue_wait_ns":9000}`,
		"rung=full;sum=P \t\x00F|true|forward",
	},
	"memoryless": {
		`{"rung":"memoryless","start_rung":"full","memoryless":{"memoryless":false,"reason":"loop reads s[i+1] after s[i]"},"attempts":3,"degraded":"core: no summary found within the budget: engine: budget exhausted","elapsed_ns":2000000,"queue_wait_ns":0}`,
		"rung=memoryless;mem=false||loop reads s[i+1] after s[i]",
	},
	"covering": {
		`{"rung":"covering","start_rung":"memoryless","covering":[{"input":"b","null":true},{"input":"a\"b","offset":1},{"input":""}],"attempts":2,"degraded":"supervise: panic: injected","elapsed_ns":500,"queue_wait_ns":40}`,
		"rung=covering;cov=(\"\",0,false)(\"a\\\"b\",1,false)(\"b\",0,true)",
	},
	"smoke": {
		`{"rung":"smoke","start_rung":"smoke","smoke":[{"input":"a\nb","offset":1},{"input":"","null":true}],"attempts":1,"elapsed_ns":1000,"queue_wait_ns":2000}`,
		"rung=smoke;smoke=(\"\",0,true)(\"a\\nb\",1,false)",
	},
	"explain": {
		`{"rung":"full","start_rung":"full","summary":{"encoded":"P \t\u0000F","readable":"strspn(\" \\t\"); return","c":"char *f_summary(char *s) {\n  return s + strspn(s, \" \\t\");\n}\n","memoryless":true,"direction":"forward"},"attempts":2,"elapsed_ns":40000000,"queue_wait_ns":1500,"provenance":{"trace_id":"00000000000000ab","start_rung":"full","final_rung":"full","floor_rung":"full","load_fraction":0.25,"p99_signal_ns":4096,"attempts":[{"rung":"full","err":"core: no summary found within the budget: engine: budget exhausted","spend":{"conflicts":3,"nodes":120,"qcache_misses":2,"disk_misses":1},"elapsed_ns":10000000},{"rung":"full","spend":{"conflicts":9,"propagations":40,"nodes":800,"qcache_hits":5,"qcache_misses":1},"elapsed_ns":29000000}],"totals":{"conflicts":12,"propagations":40,"nodes":920,"qcache_hits":5,"qcache_misses":3,"disk_misses":1},"reconciled":true}}`,
		"rung=full;sum=P \t\x00F|true|forward",
	},
}

// TestWireGolden pins the daemon's response bytes and verdict keys.
func TestWireGolden(t *testing.T) {
	for _, c := range wireCases() {
		got, err := json.Marshal(c.resp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := wireGolden[c.name]
		if string(got) != want.json {
			t.Errorf("%s JSON\n got %s\nwant %s", c.name, got, want.json)
		}
		if key := c.resp.VerdictKey(); key != want.key {
			t.Errorf("%s VerdictKey\n got %q\nwant %q", c.name, key, want.key)
		}
	}
}

// TestWireSummaryRoundTrip: a full-rung summary decoded from the wire runs
// like the one the ladder synthesised.
func TestWireSummaryRoundTrip(t *testing.T) {
	s, err := core.Summarize(figure1Src, "", core.Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(fromOutcome(core.Outcome{Rung: core.RungFull, Summary: s}, core.RungFull))
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Summary == nil || got.Summary.Encoded != s.Encoded {
		t.Fatalf("decoded summary %+v, want encoded %q", got.Summary, s.Encoded)
	}
	// The smoke battery.
	for _, in := range []string{"", " ", "a", "ab", "abc", "  x", "x  ", "0", "123", ":", "a:b", "/", "\t", "a\nb"} {
		wantOff, wantFound := s.Run(in)
		if off, found := got.Summary.Run(in); off != wantOff || found != wantFound {
			t.Errorf("Run(%q) = %d, %v after the round trip, want %d, %v", in, off, found, wantOff, wantFound)
		}
	}
}

// TestWireSummaryHighBytes: gadget arguments are raw bytes, and JSON keeps
// only those that form valid UTF-8. A summary whose program bytes survive
// still runs after the round trip; one whose bytes JSON replaced with
// U+FFFD still decodes, with every field, but without a program — the
// response is not rejected, and no wrong program is rebuilt.
func TestWireSummaryHighBytes(t *testing.T) {
	roundTrip := func(encoded string) *core.Summary {
		t.Helper()
		raw, err := json.Marshal(fromOutcome(core.Outcome{
			Rung:    core.RungFull,
			Summary: &core.Summary{Encoded: encoded, Readable: "r", C: "c"},
		}, core.RungFull))
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%q: response does not decode: %v", encoded, err)
		}
		if got.Summary == nil || got.Summary.Readable != "r" || got.Summary.C != "c" {
			t.Fatalf("%q: decoded summary %+v, want its fields kept", encoded, got.Summary)
		}
		return got.Summary
	}

	// strspn over the set {0xC3, 0xA9}, the UTF-8 bytes of "é".
	kept := roundTrip("P\xc3\xa9\x00F")
	if kept.Program() == nil || kept.Program().Encode() != "P\xc3\xa9\x00F" {
		t.Errorf("valid UTF-8 arguments: program %v, want it rebuilt", kept.Program())
	} else if off, found := kept.Run("éx"); off != 2 || !found {
		t.Errorf("Run(%q) = %d, %v, want 2, true", "éx", off, found)
	}

	// rawmemchr(0xFF) fails to decode once 0xFF becomes EF BF BD; strspn
	// over {0xFF} would decode, wrongly, as strspn over {EF, BF, BD}.
	for _, enc := range []string{"M\xffF", "P\xff\x00F"} {
		lost := roundTrip(enc)
		if lost.Program() != nil {
			t.Errorf("%q: rebuilt program %v from bytes JSON replaced", enc, lost.Program())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%q: Run did not panic without a program", enc)
				}
			}()
			lost.Run("x")
		}()
	}
}
