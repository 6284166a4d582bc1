package atomicio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"mtreescale/internal/chaos"
)

// Journal is an append-only JSON-lines file fsynced after every record: the
// durability substrate behind experiment checkpoints and cluster shard
// journals. Appends are safe for concurrent use, and write failures are
// deferred — remembered and reported by Err/Close rather than returned —
// because journal callers sit in completion hooks with no error channel, and
// a broken journal must not fail the work it records.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error // first failure; reported by Err and Close
}

// OpenJournal opens path for appending, truncating any previous journal
// unless resume is set. The parent directory must exist. A resumed journal
// first has any torn trailing write truncated away (RepairJournalTail), so
// the next append starts on a fresh line instead of gluing onto the tail a
// crash left behind — which would have made both records unreadable.
func OpenJournal(path string, resume bool) (*Journal, error) {
	if resume {
		if _, err := RepairJournalTail(path); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append marshals one record as a JSON line, writes it, and fsyncs. The
// write+sync holds the journal lock, so concurrent appends never interleave
// and a reader sees only whole lines plus at most one torn tail after a
// crash. label names the record in the deferred error.
//
// Failpoints: "journal.write" can tear or corrupt the record on its way to
// disk (the torn-write a crash mid-write produces), "journal.sync" can fail
// the fsync. Both feed the deferred-error contract like real disk faults.
func (j *Journal) Append(label string, v any) {
	rec, err := json.Marshal(v)
	if err == nil {
		rec = append(rec, '\n')
		rec, err = chaos.Write("journal.write", rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if j.f == nil {
		j.err = fmt.Errorf("journal: %s: append after close", label)
		return
	}
	if err == nil {
		_, err = j.f.Write(rec)
	}
	if err == nil {
		err = chaos.Maybe("journal.sync")
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.err = fmt.Errorf("journal: %s: %w", label, err)
	}
}

// Err reports the first deferred append failure without closing the journal.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close releases the journal and reports the first deferred failure. Close
// is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if cerr := j.f.Close(); j.err == nil && cerr != nil {
			j.err = cerr
		}
		j.f = nil
	}
	return j.err
}

// ReadJournal streams a journal's lines to fn. A missing file is an empty
// journal — the first run of a resumable job. Lines fn rejects with an error
// are counted, not fatal: a torn trailing write is exactly the case journals
// exist to survive. Returns the number of lines fn rejected.
func ReadJournal(path string, fn func(line []byte) error) (skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("journal: %s: %w", path, err)
	}
	return skipped, nil
}

// RepairJournalTail truncates a torn trailing write: if the journal does not
// end with a newline — a crash or torn write left a partial record — the
// file is cut back to the end of its last complete line and fsynced.
// Returns the number of bytes removed. A missing or empty journal is
// healthy. Mid-file garbage is left alone; per-line validation at read time
// handles it (and only the tail can be torn, since every append is a single
// locked write).
func RepairJournalTail(path string) (removed int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return 0, fmt.Errorf("journal: %s: %w", path, err)
	}
	if last[0] == '\n' {
		return 0, nil
	}
	// Scan backwards in chunks for the last newline; everything after it is
	// the torn record.
	keep := int64(0)
	buf := make([]byte, 32<<10)
	for off := size; off > 0; {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
			return 0, fmt.Errorf("journal: %s: %w", path, err)
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = off + int64(i) + 1
			break
		}
	}
	if err := f.Truncate(keep); err != nil {
		return 0, fmt.Errorf("journal: %s: truncating torn tail: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("journal: %s: %w", path, err)
	}
	return size - keep, nil
}
