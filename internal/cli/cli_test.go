//go:build unix

package cli

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestDiscardRemovesOnlyRegularFiles fails a run that named a regular
// file and a FIFO as outputs: the regular file goes, the FIFO stays.
func TestDiscardRemovesOnlyRegularFiles(t *testing.T) {
	dir := t.TempDir()
	regular, fifo := filepath.Join(dir, "r.json"), filepath.Join(dir, "p")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	// With a reader open, Create opens the FIFO's write end at once.
	r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	o := New("test")
	o.Create(regular)
	o.Create(fifo)
	o.discard()
	if _, err := os.Stat(regular); !os.IsNotExist(err) {
		t.Errorf("the regular output survived a failed run: %v", err)
	}
	if fi, err := os.Stat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("the FIFO did not survive a failed run: %v", err)
	}
}
