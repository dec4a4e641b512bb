package kleebench

import (
	"testing"

	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
	"stringloops/internal/symex"
)

// mergeWork is what one merged symbolic run did: its terminal paths, forks,
// state merges, the ite nodes those merges built, its feasibility queries
// and their SAT conflicts.
type mergeWork struct {
	paths, forks, merges, ites, queries, conflicts int64
}

// TestMergeWorkIsPinned pins the work of a merged vanilla run at length 6 on
// every corpus loop, as lowered and after Mem2Reg (whose phis put uses on
// the edges). The merging scheduler's join points, park-point liveness and
// bucket order decide every number here, so a change to how they are
// computed that moves one changed what is merged.
func TestMergeWorkIsPinned(t *testing.T) {
	golden := []struct {
		name              string
		lowered, promoted mergeWork
	}{
		{"bash/skip_ws_guarded", mergeWork{1, 18, 18, 18, 36, 1}, mergeWork{1, 18, 18, 29, 36, 1}},
		{"bash/skip_spaces", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"bash/find_eq", mergeWork{1, 12, 12, 12, 24, 3}, mergeWork{1, 12, 12, 12, 24, 3}},
		{"bash/find_colon", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"bash/find_slash", mergeWork{2, 13, 12, 12, 27, 0}, mergeWork{2, 13, 12, 12, 27, 0}},
		{"bash/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"bash/skip_digits", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"bash/skip_ws3", mergeWork{1, 18, 18, 18, 36, 0}, mergeWork{1, 18, 18, 18, 36, 0}},
		{"bash/trim_slashes", mergeWork{1, 13, 12, 12, 38, 9}, mergeWork{1, 13, 12, 12, 38, 9}},
		{"bash/skip_ws_pair", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"bash/find_sep", mergeWork{1, 18, 18, 18, 36, 0}, mergeWork{1, 18, 18, 18, 36, 0}},
		{"bash/skip_digits_ctype", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"bash/skip_ifs", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"bash/mid_split", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"diff/find_newline", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"diff/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"diff/skip_spaces", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"diff/skip_word", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"diff/pair_commas", mergeWork{1, 11, 6, 6, 22, 0}, mergeWork{1, 11, 6, 6, 22, 0}},
		{"awk/skip_number", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"awk/find_ws", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"awk/skip_blanks", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/skip_ws_guarded", mergeWork{1, 18, 18, 18, 36, 1}, mergeWork{1, 18, 18, 29, 36, 1}},
		{"git/skip_slashes", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/skip_spaces", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/find_slash", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"git/find_space", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"git/scan_newline", mergeWork{2, 6, 5, 5, 12, 0}, mergeWork{2, 6, 5, 5, 12, 0}},
		{"git/find_ws_pair", mergeWork{1, 18, 18, 18, 36, 4}, mergeWork{1, 18, 18, 18, 36, 4}},
		{"git/find_colon", mergeWork{2, 13, 12, 12, 27, 0}, mergeWork{2, 13, 12, 12, 27, 0}},
		{"git/find_comma", mergeWork{2, 13, 12, 12, 27, 1}, mergeWork{2, 13, 12, 12, 27, 1}},
		{"git/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/skip_digits", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"git/find_digit", mergeWork{1, 18, 18, 18, 36, 1}, mergeWork{1, 18, 18, 29, 36, 1}},
		{"git/skip_ws3", mergeWork{1, 18, 18, 18, 36, 0}, mergeWork{1, 18, 18, 18, 36, 0}},
		{"git/trim_slashes", mergeWork{1, 13, 12, 12, 38, 9}, mergeWork{1, 13, 12, 12, 38, 9}},
		{"git/trim_newlines", mergeWork{1, 13, 12, 12, 38, 9}, mergeWork{1, 13, 12, 12, 38, 9}},
		{"git/skip_digits_offset", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/skip_digits_ctype", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/last_slash", mergeWork{2, 22, 21, 15, 45, 0}, mergeWork{2, 22, 21, 15, 45, 0}},
		{"git/skip_seps1", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"git/skip_seps2", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"git/skip_seps3", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 24, 48, 0}},
		{"git/skip_seps4", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 24, 48, 0}},
		{"git/skip_ident1", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"git/skip_ident2", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"git/skip_ident3", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"git/mid1", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/mid2", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/mid3", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"git/pair_dots", mergeWork{1, 11, 6, 6, 22, 0}, mergeWork{1, 11, 6, 6, 22, 0}},
		{"git/pair_slashes", mergeWork{1, 11, 6, 6, 22, 0}, mergeWork{1, 11, 6, 6, 22, 0}},
		{"git/run_first1", mergeWork{2, 7, 5, 5, 14, 0}, mergeWork{2, 7, 5, 5, 14, 0}},
		{"git/run_first2", mergeWork{2, 7, 5, 5, 14, 0}, mergeWork{2, 7, 5, 5, 14, 0}},
		{"git/hex_pairs", mergeWork{1, 3, 3, 3, 6, 0}, mergeWork{1, 3, 3, 3, 6, 0}},
		{"grep/find_newline", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"grep/skip_word", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"grep/stride", mergeWork{1, 3, 3, 3, 6, 0}, mergeWork{1, 3, 3, 3, 6, 0}},
		{"m4/find_comma", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"m4/skip_quotes", mergeWork{1, 24, 24, 24, 48, 6}, mergeWork{1, 24, 24, 24, 48, 6}},
		{"m4/skip_parens", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 24, 48, 0}},
		{"m4/mid", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"m4/run_first", mergeWork{2, 7, 5, 5, 14, 0}, mergeWork{2, 7, 5, 5, 14, 0}},
		{"make/skip_target", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"make/pair_backslash", mergeWork{1, 11, 6, 6, 22, 0}, mergeWork{1, 11, 6, 6, 22, 0}},
		{"make/stride_spaces", mergeWork{1, 3, 3, 3, 6, 0}, mergeWork{1, 3, 3, 3, 6, 0}},
		{"patch/skip_ws_pair", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"patch/find_at", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"patch/find_plus", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"patch/find_dash", mergeWork{2, 13, 12, 12, 27, 3}, mergeWork{2, 13, 12, 12, 27, 3}},
		{"patch/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"patch/skip_hunk_digits", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"patch/skip_ws3", mergeWork{1, 18, 18, 18, 36, 0}, mergeWork{1, 18, 18, 18, 36, 0}},
		{"patch/trim_spaces", mergeWork{1, 13, 12, 12, 38, 9}, mergeWork{1, 13, 12, 12, 38, 9}},
		{"patch/skip_p_marker", mergeWork{1, 6, 6, 6, 12, 1}, mergeWork{1, 6, 6, 6, 12, 1}},
		{"patch/skip_marks1", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 24, 48, 0}},
		{"patch/skip_marks2", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"patch/mid", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"patch/run_first", mergeWork{2, 7, 5, 5, 14, 0}, mergeWork{2, 7, 5, 5, 14, 0}},
		{"ssh/find_comma", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"ssh/skip_spaces", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/skip_slashes", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/skip_zeros", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/find_slash", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"tar/break_nl_slash", mergeWork{2, 20, 19, 19, 41, 0}, mergeWork{2, 20, 19, 19, 41, 0}},
		{"tar/find_eq", mergeWork{2, 13, 12, 12, 27, 3}, mergeWork{2, 13, 12, 12, 27, 3}},
		{"tar/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/skip_octal", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"tar/trim_slashes", mergeWork{1, 13, 12, 12, 38, 9}, mergeWork{1, 13, 12, 12, 38, 9}},
		{"tar/find_ws", mergeWork{1, 24, 24, 24, 48, 4}, mergeWork{1, 24, 24, 24, 48, 4}},
		{"tar/skip_digits_ctype", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/skip_pad", mergeWork{1, 24, 24, 24, 48, 1}, mergeWork{1, 24, 24, 24, 48, 1}},
		{"tar/skip_name", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 35, 48, 0}},
		{"tar/mid", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"tar/pair_slashes", mergeWork{1, 11, 6, 6, 22, 0}, mergeWork{1, 11, 6, 6, 22, 0}},
		{"tar/stride", mergeWork{1, 3, 3, 3, 6, 0}, mergeWork{1, 3, 3, 3, 6, 0}},
		{"libosip/skip_lws", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"libosip/skip_lws_guarded", mergeWork{1, 18, 18, 18, 36, 1}, mergeWork{1, 18, 18, 29, 36, 1}},
		{"libosip/find_colon", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"libosip/find_semi", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"libosip/find_lt", mergeWork{1, 12, 12, 12, 24, 1}, mergeWork{1, 12, 12, 12, 24, 1}},
		{"libosip/find_gt", mergeWork{2, 13, 12, 12, 27, 0}, mergeWork{2, 13, 12, 12, 27, 0}},
		{"libosip/find_quote", mergeWork{2, 13, 12, 12, 27, 0}, mergeWork{2, 13, 12, 12, 27, 0}},
		{"libosip/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"libosip/skip_digits", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"libosip/skip_ws3", mergeWork{1, 18, 18, 18, 36, 0}, mergeWork{1, 18, 18, 18, 36, 0}},
		{"libosip/skip_digits_offset", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"libosip/skip_blanks", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"libosip/skip_crlf_ws", mergeWork{1, 24, 24, 24, 48, 0}, mergeWork{1, 24, 24, 24, 48, 0}},
		{"wget/skip_slashes", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"wget/find_query", mergeWork{1, 12, 12, 12, 24, 0}, mergeWork{1, 12, 12, 12, 24, 0}},
		{"wget/find_amp_eq", mergeWork{1, 18, 18, 18, 36, 4}, mergeWork{1, 18, 18, 18, 36, 4}},
		{"wget/find_frag", mergeWork{2, 13, 12, 12, 27, 0}, mergeWork{2, 13, 12, 12, 27, 0}},
		{"wget/to_end", mergeWork{1, 6, 6, 6, 12, 0}, mergeWork{1, 6, 6, 6, 12, 0}},
		{"wget/last_dot", mergeWork{2, 22, 21, 15, 45, 0}, mergeWork{2, 22, 21, 15, 45, 0}},
	}
	if n := len(loopdb.Corpus()); len(golden) != n {
		t.Fatalf("%d golden rows for %d corpus loops", len(golden), n)
	}
	for i, l := range loopdb.Corpus() {
		g := golden[i]
		if l.Name != g.name {
			t.Fatalf("row %d is %s, corpus loop %d is %s", i, g.name, i, l.Name)
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		for form, want := range []mergeWork{g.lowered, g.promoted} {
			if form == 1 {
				cir.Mem2Reg(f)
			}
			m := VanillaWith(f, 6, 0, Config{QCache: true, Pipeline: symex.Config{Merge: true}})
			if m.Err != nil || m.TimedOut {
				t.Fatalf("%s (SSA %v): merged run failed: %v (timed out %v)", l.Name, f.SSA, m.Err, m.TimedOut)
			}
			s := m.Spend
			if got := (mergeWork{s.Paths, s.Forks, s.Merges, s.MergeItes, s.SolverQueries, s.Conflicts}); got != want {
				t.Errorf("%s (SSA %v): merged n=6 work %+v, want %+v", l.Name, f.SSA, got, want)
			}
		}
	}
}
