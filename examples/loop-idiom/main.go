// Loop idiom recognition: the compiler application of §4.4. LLVM's
// LoopIdiomRecognize pass turns "simple loops into a non-loop form" with
// hand-written per-function matchers; here the general synthesis machinery
// does it — the loop is summarised, the summary's C lowered to loop-free IR
// over C standard-library calls, and the replacement proven equivalent
// before being returned.
//
//	go run ./examples/loop-idiom
package main

import (
	"fmt"
	"log"
	"time"

	"stringloops"
)

const source = `
char *scan_word(char *s) {
  while (*s && *s != ' ' && *s != '\t' && *s != '\n')
    s++;
  return s;
}`

func main() {
	r, err := stringloops.RewriteIdiom(source, "scan_word", 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recognised idiom:", r.Summary)
	fmt.Println("\n--- replacement C ---")
	fmt.Print(r.C)
	fmt.Println("\n--- before (loop) ---")
	fmt.Print(r.OriginalIR)
	fmt.Println("\n--- after (loop-free library calls, proven equivalent) ---")
	fmt.Print(r.RewrittenIR)
}
