package experiments

// Content-addressed cell memoization. A cell's key is a stable hash of its
// full input closure — everything the simulated result is a function of:
// the program source and the toolchain that compiles it, the machine
// configuration, the scheme/profile parameters of the toolchain, and any
// trace inputs. Given that closure, the simulator is deterministic, so a
// recorded result can be replayed byte-for-byte in place of re-simulating
// the cell (the same one-trace/many-configurations economics as the
// trace-driven cache studies in Smith's survey). The golden `-check` gate
// runs with the cache both cold and hot, so an unsound key — one that fails
// to cover part of the closure — shows up as table drift, not silent
// corruption.
//
// The closure rule for key builders: hash every input that can change the
// simulated outcome, and nothing that cannot (worker counts, wall-clock
// budgets, the fast-tier simulator fast path). Machine configurations
// enter keys as spec digests (internal/spec): a MachineSpec *is* a memo
// key, its digest covers every architectural config field (the
// field-coverage guard test in internal/spec red-flags a new field that is
// neither digested nor allowlisted as timing-neutral), and the
// timing-neutral knobs are excluded by construction so fast and accurate
// runs share entries. Benchmark programs enter keys as source, scheme and
// toolchainDigest — a pinned hash of every unprofiled image a bench key can
// name — so a key costs no compilation, and TestToolchainDigestPinned fails
// the moment compiler or reorganizer output changes. Bump memoEpoch
// whenever the simulator's semantics change, so stale on-disk entries from
// older binaries can never replay into new tables.
//
// On disk, each entry is one file (see encodeEntry): a single JSON header
// line, then the cell's payload bytes exactly as its Save produced them.
// A CRC-32C in the header covers everything replay uses — key, cycles,
// attribution and payload — so a damaged, truncated or foreign file is a
// counted miss (MemoStore.Corrupt), never a wrong table.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/trace"
)

// memoSchema identifies the on-disk entry format.
const memoSchema = "mipsx-memo/v2"

// memoEpoch is folded into every key. Bump it when simulator semantics
// change (cycle accounting, pipeline behaviour, toolchain output), so that
// on-disk caches recorded by older binaries miss instead of replaying
// stale results. Epoch 3: machine configurations hash as MachineSpec
// digests instead of struct renderings (the results are unchanged, but
// every key derivation is new). Epoch 4: the obs cause schema gained
// context-switch and flush-refill (recorded obs.Reports carry two new
// zero rows), trace.Interleave widens its stride for wide member
// addresses, and scenario cells joined the store. Epoch 5: bench keys
// carry toolchainDigest instead of the assembled image, and trace and
// branch-stream payloads are raw varint streams (entry format v2).
const memoEpoch = 5

// toolchainDigest pins the toolchain's output: a sha256 over the base and
// words of every unprofiled image a bench key can name — each tinyc
// benchmark built under each reorg.Table1Schemes() scheme, the only schemes
// a valid spec can carry. Bench keys hash it in place of their image, which
// keeps the image-in-key soundness without compiling anything to build a
// key. TestToolchainDigestPinned recomputes it; when compiler, reorganizer
// or benchmark output changes, that test fails and prints the new value to
// paste here (which also rotates every bench key and CI's memo cache).
const toolchainDigest = "98a9e93abd82655cd6cbb36f689a70e80db52708be7906eb8bcf4bb86f4919a0"

// memoEntry is one recorded cell result.
type memoEntry struct {
	Key string
	// CellID is the recording cell's ID, kept for cache-dir forensics only;
	// it is not part of the identity (several cells may share one key) and
	// the checksum does not cover it.
	CellID string
	// Cycles is the simulated-cycle count the live run accounted against
	// the engine, replayed on a hit so hot and cold runs report identical
	// total_cycles_simulated.
	Cycles uint64
	// Attr is the per-cause decomposition of Cycles (the obs ledger map the
	// live run accounted via AddAttrCtx), replayed on a hit so hot and cold
	// runs report byte-identical attribution.
	Attr map[string]uint64
	// Data is the cell's payload, exactly as its CellMemo.Save encoded it;
	// only the cell's Load decodes it.
	Data []byte
}

// entryHeader is the first line of an on-disk entry. Len and CRC bind the
// payload that follows the line to the header's identity.
type entryHeader struct {
	Schema string            `json:"schema"`
	Key    string            `json:"key"`
	CellID string            `json:"cell_id"`
	Cycles uint64            `json:"cycles"`
	Attr   map[string]uint64 `json:"attr,omitempty"`
	Len    int               `json:"len"`
	CRC    uint32            `json:"crc32c"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entryChecksum is the CRC-32C of everything a replay uses, length-framed
// field by field, attribution in sorted cause order.
func entryChecksum(key string, cycles uint64, attr map[string]uint64, payload []byte) uint32 {
	h := crc32.New(castagnoli)
	var buf [8]byte
	num := func(n uint64) {
		binary.LittleEndian.PutUint64(buf[:], n)
		h.Write(buf[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(key)
	num(cycles)
	causes := make([]string, 0, len(attr))
	for c := range attr {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	num(uint64(len(causes)))
	for _, c := range causes {
		str(c)
		num(attr[c])
	}
	num(uint64(len(payload)))
	h.Write(payload)
	return h.Sum32()
}

// encodeEntry renders e in the v2 entry format: the JSON header, a
// newline (encoding/json never emits a raw one), then the payload bytes.
func encodeEntry(e memoEntry) ([]byte, error) {
	hdr, err := json.Marshal(entryHeader{Schema: memoSchema, Key: e.Key, CellID: e.CellID,
		Cycles: e.Cycles, Attr: e.Attr, Len: len(e.Data),
		CRC: entryChecksum(e.Key, e.Cycles, e.Attr, e.Data)})
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(hdr)+1+len(e.Data))
	b = append(append(append(b, hdr...), '\n'), e.Data...)
	return b, nil
}

// decodeEntry parses and verifies an encoded entry. The payload aliases b.
func decodeEntry(b []byte) (memoEntry, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return memoEntry{}, errors.New("memo entry: no header line")
	}
	var h entryHeader
	if err := json.Unmarshal(b[:nl], &h); err != nil {
		return memoEntry{}, fmt.Errorf("memo entry: header: %w", err)
	}
	if h.Schema != memoSchema {
		return memoEntry{}, fmt.Errorf("memo entry: schema %q, want %q", h.Schema, memoSchema)
	}
	payload := b[nl+1:]
	if len(payload) != h.Len {
		return memoEntry{}, fmt.Errorf("memo entry: %d payload bytes, header says %d", len(payload), h.Len)
	}
	if sum := entryChecksum(h.Key, h.Cycles, h.Attr, payload); sum != h.CRC {
		return memoEntry{}, fmt.Errorf("memo entry: checksum %#08x, header says %#08x", sum, h.CRC)
	}
	return memoEntry{Key: h.Key, CellID: h.CellID, Cycles: h.Cycles, Attr: h.Attr, Data: payload}, nil
}

// MemoStore is the content-addressed result cache: an in-memory map,
// optionally backed by a directory of entries (one file per key) that
// persists across processes. The zero store is not usable; call
// NewMemoStore.
type MemoStore struct {
	dir string // "" = memory-only

	mu  sync.RWMutex
	mem map[string]memoEntry

	hits        atomic.Uint64
	misses      atomic.Uint64
	writeErrors atomic.Uint64
	corrupt     atomic.Uint64
}

// NewMemoStore opens a store. dir == "" keeps results in memory only
// (still useful: experiments within one run share identical cells);
// otherwise entries are also written to dir, which is created if needed.
func NewMemoStore(dir string) (*MemoStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo cache: %w", err)
		}
	}
	return &MemoStore{dir: dir, mem: make(map[string]memoEntry)}, nil
}

// Hits and Misses report lookup outcomes since construction.
func (s *MemoStore) Hits() uint64   { return s.hits.Load() }
func (s *MemoStore) Misses() uint64 { return s.misses.Load() }

// WriteErrors counts results that could not be recorded: a failed Save or
// encoding in the engine, or a failed write or rename of the disk entry.
// Such a cell simply misses again next time.
func (s *MemoStore) WriteErrors() uint64 { return s.writeErrors.Load() }

// Corrupt counts recorded entries that could not be replayed: a disk entry
// with a bad header, a foreign schema (entries from older formats), a
// length or checksum mismatch or another key's identity, and any entry its
// cell's Load rejected. Each one was a miss; the cell ran live and its
// entry was rewritten.
func (s *MemoStore) Corrupt() uint64 { return s.corrupt.Load() }

// HitRate is hits over all lookups (0 when nothing was looked up).
func (s *MemoStore) HitRate() float64 {
	h, m := s.hits.Load(), s.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func (s *MemoStore) path(key string) string {
	return filepath.Join(s.dir, key+".memo")
}

// get returns the recorded entry for key, consulting memory first and then
// the backing directory. A disk entry that fails to decode as key's entry
// is a counted corrupt miss (a live run overwrites it).
func (s *MemoStore) get(key string) (memoEntry, bool) {
	s.mu.RLock()
	e, ok := s.mem[key]
	s.mu.RUnlock()
	if !ok && s.dir != "" {
		if b, err := os.ReadFile(s.path(key)); err == nil {
			if e, ok = s.decode(key, b); ok {
				s.mu.Lock()
				s.mem[key] = e
				s.mu.Unlock()
			}
		}
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// decode verifies b as the recorded entry for key, counting any failure as
// corrupt.
func (s *MemoStore) decode(key string, b []byte) (memoEntry, bool) {
	e, err := decodeEntry(b)
	if err != nil || e.Key != key {
		s.corrupt.Add(1)
		return memoEntry{}, false
	}
	return e, true
}

// put records an entry in memory and, when backed, on disk. Racing
// duplicates are identical by construction (the simulator is deterministic
// over the key's closure), so last-write-wins is sound.
func (s *MemoStore) put(e memoEntry) {
	s.mu.Lock()
	s.mem[e.Key] = e
	s.mu.Unlock()
	if s.dir == "" {
		return
	}
	if err := s.write(e); err != nil {
		s.writeErrors.Add(1)
	}
}

// write stores e on disk through a uniquely named temp file and a rename,
// so a concurrent reader never sees a torn entry and two writers of one
// key (in this process or another) never rename each other's half-written
// file into place. The temp file is removed if anything fails.
func (s *MemoStore) write(e memoEntry) error {
	b, err := encodeEntry(e)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, e.Key+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp makes 0600; entries are shareable
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), s.path(e.Key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ---------------------------------------------------------------------------
// Key builder

// keyBuilder accumulates a cell's input closure into a sha256 hash. Every
// write is length- and label-framed, so adjacent fields can never alias
// (the hash-collision guard test exercises this).
type keyBuilder struct{ h hash.Hash }

// newKey starts a key for one kind of cell ("run", "vax", "cluster", ...);
// the kind and the memo epoch are the first framed fields.
func newKey(kind string) *keyBuilder {
	k := &keyBuilder{h: sha256.New()}
	k.str("epoch", fmt.Sprint(memoEpoch))
	k.str("kind", kind)
	return k
}

func (k *keyBuilder) frame(label string, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(label)))
	k.h.Write(buf[:])
	k.h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	k.h.Write(buf[:])
}

// str hashes a labelled string field.
func (k *keyBuilder) str(label, s string) *keyBuilder {
	k.frame(label, len(s))
	k.h.Write([]byte(s))
	return k
}

// num hashes a labelled integer field.
func (k *keyBuilder) num(label string, n uint64) *keyBuilder {
	k.frame(label, 8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n)
	k.h.Write(buf[:])
	return k
}

// words hashes a labelled word slice (assembled program images, traces).
func (k *keyBuilder) words(label string, ws []isa.Word) *keyBuilder {
	k.frame(label, 4*len(ws))
	var buf [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(buf[:], uint32(w))
		k.h.Write(buf[:])
	}
	return k
}

// flt hashes a labelled float field, bit-exact (the probabilities and
// biases in a SynthConfig are part of a trace's identity).
func (k *keyBuilder) flt(label string, f float64) *keyBuilder {
	return k.num(label, math.Float64bits(f))
}

// synth hashes a synthetic trace's full input closure: every SynthConfig
// field (each one steers the generator or its RNG) plus the reference
// count. Generator-semantics changes are covered by memoEpoch, like every
// other key.
func (k *keyBuilder) synth(label string, cfg trace.SynthConfig, refs int) *keyBuilder {
	k.num(label+".codewords", uint64(cfg.CodeWords))
	k.num(label+".funcs", uint64(cfg.Funcs))
	k.num(label+".avgrun", uint64(cfg.AvgRun))
	k.num(label+".avgloopiters", uint64(cfg.AvgLoopIters))
	k.flt(label+".callprob", cfg.CallProb)
	k.num(label+".hotfuncs", uint64(cfg.HotFuncs))
	k.flt(label+".hotbias", cfg.HotBias)
	k.num(label+".maxdepth", uint64(cfg.MaxDepth))
	k.num(label+".seed", uint64(cfg.Seed))
	k.num(label+".refs", uint64(refs))
	return k
}

// sum finalizes the key.
func (k *keyBuilder) sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}
