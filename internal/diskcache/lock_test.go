package diskcache

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestHelperTierLockHolder is not a test: re-exec'd by the two-process
// lock test below, it opens the tier named by DISKCACHE_LOCK_DIR, writes
// one record, reports readiness on stdout, and holds the lock until its
// stdin closes.
func TestHelperTierLockHolder(t *testing.T) {
	dir := os.Getenv("DISKCACHE_LOCK_DIR")
	if dir == "" {
		t.Skip("helper process only")
	}
	tier, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatalf("helper open: %v", err)
	}
	if tier.ReadOnly {
		t.Fatal("helper expected to own the lock")
	}
	tier.Queries.Put(nil, "holder-key", []byte("holder-value"))
	os.Stdout.WriteString("locked\n")
	io.ReadAll(os.Stdin) // park until the parent closes our stdin
	if err := tier.Close(); err != nil {
		t.Fatalf("helper close: %v", err)
	}
}

// startHolder re-execs the test binary as a second process holding the
// tier lock on dir, and waits until it reports the lock taken.
func startHolder(t *testing.T, dir string) (stop func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestHelperTierLockHolder$", "-test.v")
	cmd.Env = append(os.Environ(), "DISKCACHE_LOCK_DIR="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatalf("stdin pipe: %v", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting holder: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == "locked" {
			return func() {
				stdin.Close()
				io.Copy(io.Discard, stdout) // drain until exit
				if err := cmd.Wait(); err != nil {
					t.Errorf("holder exit: %v", err)
				}
			}
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("holder never reported the lock taken")
	return nil
}

// TestTierLockSecondProcessReadOnly pins the multi-writer fix with two
// real processes: while a live process holds a tier directory's advisory
// lock, a second opener degrades to read-only — it still warm-starts and
// serves reads, but its Close must not clobber the owner's snapshots.
// Once the owner exits cleanly, the next opener owns the lock again.
func TestTierLockSecondProcessReadOnly(t *testing.T) {
	dir := t.TempDir()
	stop := startHolder(t, dir)

	second, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	if !second.ReadOnly {
		t.Fatal("second opener got the lock while the holder process is alive")
	}
	// Reads still work; writes stay in memory.
	second.Queries.Put(nil, "second-key", []byte("second-value"))
	if err := second.Close(); err != nil {
		t.Fatalf("read-only close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "queries.cache")); !os.IsNotExist(err) {
		t.Fatal("read-only tier persisted a snapshot over the owner's directory")
	}

	stop() // holder exits cleanly: saves its snapshot, releases the lock

	third, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if third.ReadOnly {
		t.Fatal("lock not released by the holder's clean exit")
	}
	// The owner's record survived; the read-only writer's did not.
	if v, ok := third.Queries.Get(nil, "holder-key"); !ok || string(v) != "holder-value" {
		t.Errorf("holder record = %q, %v; want the owner's snapshot intact", v, ok)
	}
	if _, ok := third.Queries.Get(nil, "second-key"); ok {
		t.Error("read-only writer's record leaked into the snapshot")
	}
	if err := third.Close(); err != nil {
		t.Fatalf("third close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, LockName)); !os.IsNotExist(err) {
		t.Error("lock file left behind after clean close")
	}
}

// TestTierLockStaleSteal: a lock file recording a dead pid (an unclean
// exit) must be stolen, not honored forever.
func TestTierLockStaleSteal(t *testing.T) {
	dir := t.TempDir()
	// A pid that cannot be alive: fork a process and wait for it to die.
	probe := exec.Command("true")
	if err := probe.Run(); err != nil {
		t.Fatalf("probe process: %v", err)
	}
	deadPid := probe.Process.Pid
	if err := os.WriteFile(filepath.Join(dir, LockName), []byte(strconv.Itoa(deadPid)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tier, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatalf("open over stale lock: %v", err)
	}
	if tier.ReadOnly {
		t.Fatal("stale lock honored: tier degraded to read-only for a dead owner")
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTierLockGarbageStolen: an unparseable lock file is stale by
// definition and must not wedge the directory.
func TestTierLockGarbageStolen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LockName), []byte("not a pid"), 0o644); err != nil {
		t.Fatal(err)
	}
	tier, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatalf("open over garbage lock: %v", err)
	}
	if tier.ReadOnly {
		t.Fatal("garbage lock honored")
	}
	tier.Close()
}
