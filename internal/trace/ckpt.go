package trace

// Checkpoint envelope (schema lowmemroute.ckpt/v1): a schema-versioned,
// CRC-guarded snapshot of simulation state, written every N rounds so a
// multi-hour build survives interruption. The trace package owns only the
// container — named sections of machine words — while the meaning of each
// section belongs to the subsystem that registered it (the engine, the
// hopset explorer, the tree-routing builder, ...). Documented in DESIGN.md
// §15 next to the export schema in §7.
//
// Layout decisions:
//
//   - Section payloads are []uint64 (the simulator's word type) encoded as
//     base64 little-endian bytes, NOT JSON numbers: a JSON number loses
//     integer precision past 2^53 and word payloads routinely carry packed
//     64-bit values (float bits, splitmix64 cursors).
//   - A CRC-32 (IEEE) over every section's name and decoded payload makes
//     torn writes and bit rot a loud, early error instead of a resumed build
//     that silently diverges.
//   - WriteCheckpointFile writes to a temp file in the target directory and
//     renames it into place, so a crash mid-write leaves the previous
//     checkpoint intact.
import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CkptSchemaVersion identifies the checkpoint layout. Like the trace export
// schema it bumps on any incompatible change, and readers reject unknown
// versions — with a distinct "newer writer" error for future versions.
const CkptSchemaVersion = "lowmemroute.ckpt/v1"

const (
	traceSchemaFamily = "lowmemroute.trace"
	traceSchemaMax    = 4
	ckptSchemaFamily  = "lowmemroute.ckpt"
	ckptSchemaMax     = 1
)

// ErrCkptFutureSchema marks a checkpoint written by a newer version of this
// code; errors.Is-matchable so callers can suggest an upgrade.
var ErrCkptFutureSchema = errors.New("checkpoint schema is newer than this reader")

// ErrCkptCorrupt marks a checkpoint whose CRC does not cover its content —
// a torn write or on-disk corruption.
var ErrCkptCorrupt = errors.New("checkpoint corrupt")

// schemaNumber parses the version number of a "<family>/v<N>" schema string.
// ok is false when the string is not of that family or N is not a positive
// integer — such strings are "unknown", not "future".
func schemaNumber(schema, family string) (int, bool) {
	rest, found := strings.CutPrefix(schema, family+"/v")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// CkptSection is one named slab of state. Who wrote it decides what the
// words mean; the envelope only guarantees they come back bit-for-bit.
type CkptSection struct {
	Name  string `json:"name"`
	Words string `json:"words"` // base64(little-endian uint64s)
}

// Checkpoint is the whole snapshot: identifying metadata (graph family,
// size, seed, build phase cursor, ...) plus the per-subsystem sections.
type Checkpoint struct {
	Schema string `json:"schema"`
	// Meta identifies the run this checkpoint belongs to. Resume validates
	// it against the relaunched configuration before restoring anything.
	Meta map[string]string `json:"meta,omitempty"`
	// Round is the global round counter at snapshot time (convenience copy
	// of the engine section's counter, for tooling that only reads headers).
	Round    int64         `json:"round"`
	Sections []CkptSection `json:"sections"`
	// CRC is crc32.IEEE over each section's name and decoded payload bytes,
	// in order.
	CRC uint32 `json:"crc"`
}

// EncodeWords packs words as base64 little-endian bytes.
func EncodeWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeWords unpacks a section payload.
func DecodeWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("trace: checkpoint section payload: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("trace: checkpoint section payload is %d bytes, not a whole number of words", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return words, nil
}

// Section returns the decoded payload of the named section, or ok=false.
func (c *Checkpoint) Section(name string) ([]uint64, bool, error) {
	for _, s := range c.Sections {
		if s.Name == name {
			w, err := DecodeWords(s.Words)
			return w, err == nil, err
		}
	}
	return nil, false, nil
}

// AddSection appends a named payload.
func (c *Checkpoint) AddSection(name string, words []uint64) {
	c.Sections = append(c.Sections, CkptSection{Name: name, Words: EncodeWords(words)})
}

// checksum computes the envelope CRC over section names and decoded
// payloads. It re-decodes rather than trusting the base64 text so that the
// CRC written and the CRC verified cover the same bytes.
func (c *Checkpoint) checksum() (uint32, error) {
	h := crc32.NewIEEE()
	for _, s := range c.Sections {
		io.WriteString(h, s.Name)
		buf, err := base64.StdEncoding.DecodeString(s.Words)
		if err != nil {
			return 0, fmt.Errorf("trace: checkpoint section %q payload: %w", s.Name, err)
		}
		h.Write(buf)
	}
	return h.Sum32(), nil
}

// Seal stamps the schema version and CRC; call after the last AddSection.
func (c *Checkpoint) Seal() error {
	c.Schema = CkptSchemaVersion
	crc, err := c.checksum()
	if err != nil {
		return err
	}
	c.CRC = crc
	return nil
}

// WriteCheckpoint serialises a sealed checkpoint.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCheckpoint parses and validates a checkpoint: schema family and
// version (future versions get ErrCkptFutureSchema), then the CRC
// (mismatches get ErrCkptCorrupt). Truncated or malformed JSON surfaces as
// a decode error before either check.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("trace: decode checkpoint (truncated or not a checkpoint file?): %w", err)
	}
	if c.Schema != CkptSchemaVersion {
		if n, ok := schemaNumber(c.Schema, ckptSchemaFamily); ok && n > ckptSchemaMax {
			return nil, fmt.Errorf("trace: checkpoint schema %q (this reader understands up to v%d): %w",
				c.Schema, ckptSchemaMax, ErrCkptFutureSchema)
		}
		return nil, fmt.Errorf("trace: unsupported checkpoint schema %q (want %q)", c.Schema, CkptSchemaVersion)
	}
	crc, err := c.checksum()
	if err != nil {
		return nil, err
	}
	if crc != c.CRC {
		return nil, fmt.Errorf("trace: checkpoint CRC %08x, file says %08x: %w", crc, c.CRC, ErrCkptCorrupt)
	}
	return &c, nil
}

// WriteCheckpointFile atomically replaces path with a sealed checkpoint:
// temp file in the same directory, fsync, rename.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	if err := c.Seal(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := WriteCheckpoint(f, c); err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			return os.Rename(tmp, path)
		}
	} else {
		f.Close()
	}
	os.Remove(tmp)
	return fmt.Errorf("trace: write checkpoint %s: %w", path, err)
}

// ReadCheckpointFile reads and validates the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// WordReader is a bounds-checked cursor over a section payload, shared by the
// subsystems that decode their own sections. Reads past the end do not panic;
// they return zero values and latch a failure that Done reports, so decoders
// can run straight-line and check once.
type WordReader struct {
	words []uint64
	pos   int
	fail  bool
}

// NewWordReader wraps a decoded section payload.
func NewWordReader(words []uint64) *WordReader { return &WordReader{words: words} }

// Word consumes one word (0 past the end).
func (r *WordReader) Word() uint64 {
	if r.pos >= len(r.words) {
		r.fail = true
		return 0
	}
	w := r.words[r.pos]
	r.pos++
	return w
}

// Int consumes one word as a signed integer.
func (r *WordReader) Int() int { return int(int64(r.Word())) }

// Bool consumes one word as a flag.
func (r *WordReader) Bool() bool { return r.Word() != 0 }

// Take consumes n words, returning a sub-slice of the payload (nil past the
// end or for n <= 0).
func (r *WordReader) Take(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	if r.pos+n > len(r.words) {
		r.fail = true
		r.pos = len(r.words)
		return nil
	}
	s := r.words[r.pos : r.pos+n]
	r.pos += n
	return s
}

// Done reports decoding health: an error if any read ran past the end, or if
// words remain unconsumed (both indicate a layout mismatch — for a
// CRC-validated checkpoint that means writer/reader version skew, not
// corruption).
func (r *WordReader) Done() error {
	if r.fail {
		return fmt.Errorf("trace: checkpoint section truncated (%d words)", len(r.words))
	}
	if r.pos != len(r.words) {
		return fmt.Errorf("trace: checkpoint section has %d trailing words", len(r.words)-r.pos)
	}
	return nil
}
