package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// The journal: with Config.Journal set, every durable fact about a job is
// one frame appended to the worker's one journal file, keyed by the job id.
// SubmitSpec appends an intent before the submission returns; finalize
// appends a result when the job is done, or a retire when it failed or a
// caller cancelled it. Pending work after a crash or a shutdown is exactly
// the intents with no later result or retire for the same key: the next
// engine on the same file finds them in the scan that opened it (Pending),
// and the layer that built the submissions replays them and retires the old
// ids. The file is the worker's, not only the engine's: the layer above
// keeps its own frame kinds in it (the server's graph frames), reads them
// back through OpenJournal's callback and writes them with Engine.Append.

// JournalFile is the name of the journal inside a worker's data directory.
const JournalFile = "jobs.journal"

// The journal's frame kinds that are the engine's; every other kind
// belongs to the layer above and is none of this package's business.
const (
	kindIntent byte = 'i' // payload: Intent JSON
	kindResult byte = 'r' // payload: Record JSON, '\n', the coordinates as little-endian float64
	kindRetire byte = 'x' // no payload
)

// PersistVersion is the schema version stamped into every intent and
// result header. The schema evolves additively: bumping the version marks
// frames whose fields a strictly older reader could misinterpret, not
// every new optional field. Readers accept any version up to their own
// (a missing one reads as 0), ignore unknown fields, and refuse — never
// silently misread — a newer version.
const PersistVersion = 1

// Intent is the journaled shape of a submitted job. Spec is the original
// validated request body, verbatim; the engine treats it as opaque and the
// layer that built the submission (the HTTP server) re-parses it on
// recovery, so the wire format and the recovery format are the same bytes.
type Intent struct {
	Version int             `json:"version"` // schema version written with
	ID      string          `json:"id"`      // job id; also the frame's key
	Graph   string          `json:"graph"`   // catalog name submitted against
	Spec    json.RawMessage `json:"spec"`
	Created time.Time       `json:"created"` // original submission time
}

// Record is a completed job as its result frame holds it: everything but
// Coords is the frame's JSON header. Coords is column-major — coordinate k
// of all vertices occupies Coords[k*n : (k+1)*n], matching linalg.Dense
// storage — and stored as bit patterns, so NaN and ±Inf survive.
type Record struct {
	Version int         `json:"version"`           // schema version written with
	Status  Status      `json:"status"`            // the job at completion time
	Quality interface{} `json:"quality,omitempty"` // layout quality metrics, when evaluated
	Dims    int         `json:"dims"`              // layout dimensionality p
	Coords  []float64   `json:"-"`
}

// appendCoords is the part of a result payload that follows the header.
func appendCoords(b []byte, coords []float64) []byte {
	b = append(b, '\n')
	for _, c := range coords {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// decode parses a frame's JSON (for a result, its header) into v, whose
// Version field is version; a newer schema is refused.
func decode(f journal.Frame, head []byte, v interface{}, version *int) error {
	if err := json.Unmarshal(head, v); err != nil {
		return fmt.Errorf("jobs: decoding %c frame %s: %w", f.Kind, f.Key, err)
	}
	if *version > PersistVersion {
		return fmt.Errorf("jobs: %c frame %s has schema version %d, newer than supported %d", f.Kind, f.Key, *version, PersistVersion)
	}
	return nil
}

func decodeRecord(f journal.Frame) (rec Record, err error) {
	head, raw, _ := bytes.Cut(f.Payload, []byte{'\n'})
	if err = decode(f, head, &rec, &rec.Version); err != nil {
		return rec, err
	}
	if len(raw)%8 != 0 || rec.Dims > 0 && len(raw)/8%rec.Dims != 0 {
		return rec, fmt.Errorf("jobs: result %s has %d coordinate bytes, not divisible by %d dims", f.Key, len(raw), rec.Dims)
	}
	rec.Coords = make([]float64, len(raw)/8)
	for i := range rec.Coords {
		rec.Coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return rec, nil
}

// Snapshot is what a job journal says, folded frame by frame in file order.
type Snapshot struct {
	Results []Record // one per result frame whose payload was read
	Pending []Intent // intents no later result or retire resolved, oldest first: what a restart must run again
	Seq     int64    // highest id sequence number (the digits that end a key)
	Bytes   int64    // length of the journal's valid prefix
	// Errs lists the frames that were refused (undecodable, or written by
	// a newer schema) and stepped over; one bad frame never hides the rest.
	Errs []error
}

func (s *Snapshot) apply(f journal.Frame) {
	if !ownKind(f.Kind) {
		return // a graph named proj7 is not job sequence 7
	}
	n, _ := strconv.ParseInt(f.Key[strings.LastIndexByte(f.Key, 'j')+1:], 10, 64)
	s.Seq = max(s.Seq, n)
	var err error
	switch f.Kind {
	case kindIntent:
		var in Intent
		if err = decode(f, f.Payload, &in, &in.Version); err == nil && (in.ID != f.Key || in.Graph == "") {
			err = fmt.Errorf("jobs: intent %s names id %q and graph %q", f.Key, in.ID, in.Graph)
		}
		if err == nil {
			s.Pending = append(s.Pending, in)
		}
	case kindResult:
		if f.Payload != nil { // nil: an engine's start-up scan skipped it
			var rec Record
			if rec, err = decodeRecord(f); err == nil {
				s.Results = append(s.Results, rec)
			}
		}
		fallthrough // resolved, even by a result whose header is refused: the job ran
	case kindRetire:
		s.Pending = slices.DeleteFunc(s.Pending, func(in Intent) bool { return in.ID == f.Key })
	}
	if err != nil {
		s.Errs = append(s.Errs, err)
	}
}

// ownKind reports whether kind is one of the engine's frame kinds.
func ownKind(kind byte) bool {
	return kind == kindIntent || kind == kindResult || kind == kindRetire
}

// skipResult keeps a start-up scan from reading coordinates: to know what
// is pending it needs a result frame's key, not its payload.
func skipResult(kind byte) bool { return kind == kindResult }

// Journal is a worker's journal opened for one Engine: the file, and what
// the scan that opened it folded out of the job frames.
type Journal struct {
	file *journal.Journal // closed (the zero Journal) when the file could not be opened
	snap Snapshot
}

// OpenJournal opens dir's journal in one ordered scan. Job frames are
// folded for the engine that gets the result as its Config.Journal — the
// id sequence continues past every job key the file holds (a restarted
// worker never reuses an id) and the intents it leaves unresolved become
// Pending. Frames of every other kind go to other (nil drops them), in
// file order and with their payload, so the caller rebuilds whatever it
// keeps in the file before any pending job is resubmitted. A journal that
// cannot be opened is not fatal: the engine logs why and outlives it —
// jobs run, and every frame that should have been written counts in
// jobs_journal_errors_total.
func OpenJournal(dir string, other func(journal.Frame)) *Journal {
	j := &Journal{file: new(journal.Journal)}
	file, err := journal.Open(filepath.Join(dir, JournalFile), skipResult, func(f journal.Frame) {
		if ownKind(f.Kind) {
			j.snap.apply(f)
		} else if other != nil {
			other(f)
		}
	})
	if err != nil {
		j.snap = Snapshot{Errs: append(j.snap.Errs, err)}
	} else {
		j.file = file
	}
	return j
}

// Append writes one frame to the engine's journal: timed whole into
// jobs_journal_append_seconds, and a frame that does not reach the file is
// counted and logged, never fatal to the request or job that wrote it.
// Without a journal it is a no-op. The engine's own frames go through it,
// and so do the frames of the layer that shares the file.
func (e *Engine) Append(kind byte, key string, fill func([]byte) ([]byte, error)) {
	if e.cfg.Journal == nil {
		return
	}
	start := time.Now()
	err := e.jrn.Append(kind, key, fill)
	e.appendSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		e.journalErrs.Inc()
		if e.cfg.Logger != nil {
			e.cfg.Logger.Printf("jobs: journaling %c frame for %s: %v", kind, key, err)
		}
	}
}

// record appends one job frame for id: head as JSON (nil for none), then
// for a result the coordinates.
func (e *Engine) record(kind byte, id string, head interface{}, coords []float64) {
	e.Append(kind, id, func(b []byte) ([]byte, error) {
		if head != nil {
			h, err := json.Marshal(head)
			if err != nil {
				return nil, err
			}
			b = append(b, h...)
		}
		if kind == kindResult {
			b = appendCoords(b, coords)
		}
		return b, nil
	})
}

// Pending returns the intents the journal held unresolved when the engine
// started, oldest first: jobs a previous process accepted and never
// finished. The caller resubmits each and retires the old id.
func (e *Engine) Pending() []Intent { return e.pending }

// Retire marks id resolved in the journal so no later start replays it.
func (e *Engine) Retire(id string) { e.Append(kindRetire, id, nil) }

// ReadJournal reads dir's job journal without modifying it, verifying
// every frame's checksum and stopping quietly at a torn tail (which a
// live engine may be in the middle of appending).
func ReadJournal(dir string) (*Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	s.Bytes = journal.Scan(bytes.NewReader(b), int64(len(b)), nil, s.apply)
	return s, nil
}
