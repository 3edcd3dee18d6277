// Package checkpoint implements the coordinator-side fault tolerance of the
// paper (§4.1): "The coordinator manages a possible failure of the farmer by
// periodically saving, in two files, the contents of INTERVALS and
// SOLUTION. In the case of the farmer failure, the coordinator initializes
// INTERVALS and SOLUTION by the contents of these files."
//
// Snapshots are versioned text files with a CRC32 footer, written durably
// (temp file, fsync, rename, directory fsync) with generation rotation: the
// previous good snapshot survives as "*.prev". A Load that finds a corrupt
// file quarantines it and falls back to the previous generation, so a torn
// write or bit flip degrades the resolution by one checkpoint period instead
// of losing it. Every filesystem touch goes through the FS seam so the chaos
// harness can make the disk itself fail.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"math/big"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/interval"
)

// IntervalRecord is one INTERVALS entry: the coordinator's copy of a work
// unit. Owner identities are deliberately not persisted — after a farmer
// restart every interval is an orphan and gets handed out afresh, exactly
// the virtual null-power process rule of §4.2.
type IntervalRecord struct {
	// ID is the coordinator-side identifier.
	ID int64
	// Interval is the not-yet-explored range.
	Interval interval.Interval
}

// Snapshot is the persistent state of a resolution.
type Snapshot struct {
	// Intervals is the content of INTERVALS.
	Intervals []IntervalRecord
	// Epoch counts farmer incarnations: each restore bumps it, and ids
	// are epoch-qualified, so an id issued after this snapshot was taken
	// can never collide with one issued after the restore.
	Epoch int64
	// NextID records the saving incarnation's allocation count. It is
	// diagnostic only: id freshness across restarts comes from the Epoch
	// bump (a restored farmer restarts its sequence at zero in a fresh
	// epoch), never from continuing this sequence.
	NextID int64
	// BestCost is SOLUTION's cost; bb.Infinity when no solution exists.
	BestCost int64
	// BestPath is SOLUTION's rank path; nil when no solution exists.
	BestPath []int
	// TotalLen, when non-nil, records the total remaining length of
	// INTERVALS as the farmer maintained it incrementally (§4.3's "size"
	// measure). Save persists it and Load cross-checks it against the sum
	// of the interval records, so a snapshot whose incremental counter
	// drifted from its table — or whose file lost or gained a record —
	// is rejected instead of silently restoring the wrong search space.
	// Nil (files from before the field existed) skips the check.
	TotalLen *big.Int
}

// ErrCorrupt marks a Load failure caused by corrupt snapshot files (CRC or
// record-count mismatch, truncation, unparseable records, TotalLen drift)
// with no previous generation left to fall back to. The corrupt files have
// already been quarantined when this is returned; callers that multiplex
// many resolutions (the job table) use it to quarantine one job instead of
// failing the whole restart.
var ErrCorrupt = errors.New("corrupt snapshot")

// Stats counts the store's self-healing events. Namespaced sub-stores share
// their parent's counters, so a multi-tenant store reports one aggregate.
type Stats struct {
	// CorruptSnapshots counts snapshot files found corrupt and moved to
	// the quarantine directory.
	CorruptSnapshots int64
	// FallbackLoads counts Loads that served any file from its previous
	// generation instead of the current one.
	FallbackLoads int64
	// SweptTmpFiles counts stale *.tmp leftovers removed at store open.
	SweptTmpFiles int64
}

type storeStats struct {
	corrupt  atomic.Int64
	fallback atomic.Int64
	swept    atomic.Int64
}

// Store reads and writes snapshots under a directory, using the paper's
// two-file layout plus the durability additions (generations, quarantine).
type Store struct {
	dir   string
	fs    FS
	stats *storeStats
}

// intervalsFile and solutionFile are the two files of §4.1.
const (
	intervalsFile = "intervals.ckpt"
	solutionFile  = "solution.ckpt"
	// formatVersion (v2) adds a mandatory CRC32-and-record-count footer:
	// any truncation destroys the footer line, any byte flip fails the
	// checksum, so "last line parses as a valid footer" certifies the
	// whole file. A header naming any other version is a corrupt file.
	formatVersion = "gridbb-checkpoint-v2"
	// prevSuffix names the rotated previous generation of each file.
	prevSuffix = ".prev"
	// quarantineDir collects corrupt files (bytes preserved for forensics
	// and for the epoch salvage scan) instead of deleting them.
	quarantineDir = "quarantine"
)

// crcTable is Castagnoli, the hardware-accelerated polynomial.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// NewStore creates the directory if needed and returns a store over the
// real filesystem.
func NewStore(dir string) (*Store, error) {
	return NewStoreFS(OSFS(), dir)
}

// NewStoreFS is NewStore over an explicit filesystem — the injection point
// for disk-fault testing. Opening a store sweeps stale *.tmp leftovers: a
// crash between write and rename strands them, and nothing else ever
// deletes them.
func NewStoreFS(fs FS, dir string) (*Store, error) {
	s := &Store{dir: dir, fs: fs, stats: &storeStats{}}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) init() error {
	if err := s.fs.MkdirAll(s.dir); err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", s.dir, err)
	}
	s.sweepTmp()
	return nil
}

// sweepTmp removes stale *.tmp files left by a crash between write and
// rename. Best effort: a failure to sweep never blocks opening the store.
func (s *Store) sweepTmp() {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if s.fs.Remove(filepath.Join(s.dir, e.Name())) == nil {
			s.stats.swept.Add(1)
		}
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the self-healing counters. Namespaced sub-stores share one
// counter set with their parent, so the root of a multi-tenant store
// aggregates every job.
func (s *Store) Stats() Stats {
	return Stats{
		CorruptSnapshots: s.stats.corrupt.Load(),
		FallbackLoads:    s.stats.fallback.Load(),
		SweptTmpFiles:    s.stats.swept.Load(),
	}
}

// Save persists the snapshot durably. Each file is written to a temporary
// name and fsynced, the current generation (if any) rotates to *.prev, the
// temp renames into place, and the directory is fsynced — so after a crash
// at any point there is always at least one complete, checksummed
// generation of each file on disk.
func (s *Store) Save(snap Snapshot) error {
	var iv strings.Builder
	fmt.Fprintf(&iv, "epoch %d\n", snap.Epoch)
	fmt.Fprintf(&iv, "nextid %d\n", snap.NextID)
	if snap.TotalLen != nil {
		fmt.Fprintf(&iv, "total %s\n", snap.TotalLen.Text(10))
	}
	records := 2
	if snap.TotalLen != nil {
		records++
	}
	for _, rec := range snap.Intervals {
		text, err := rec.Interval.MarshalText()
		if err != nil {
			return fmt.Errorf("checkpoint: marshal interval %d: %w", rec.ID, err)
		}
		fmt.Fprintf(&iv, "interval %d %s\n", rec.ID, text)
		records++
	}
	if err := s.writeSnapshotFile(intervalsFile, "intervals", iv.String(), records); err != nil {
		return err
	}
	var sol strings.Builder
	fmt.Fprintf(&sol, "cost %d\n", snap.BestCost)
	records = 1
	if snap.BestPath != nil {
		fmt.Fprintf(&sol, "path")
		for _, r := range snap.BestPath {
			fmt.Fprintf(&sol, " %d", r)
		}
		fmt.Fprintf(&sol, "\n")
		records++
	}
	return s.writeSnapshotFile(solutionFile, "solution", sol.String(), records)
}

// writeSnapshotFile frames body in the v2 format (header, body, CRC
// footer) and writes it durably with generation rotation.
func (s *Store) writeSnapshotFile(name, kind, body string, records int) error {
	payload := formatVersion + " " + kind + "\n" + body
	footer := fmt.Sprintf("footer %d %08x\n", records, crc32.Checksum([]byte(payload), crcTable))
	return s.writeDurable(name, []byte(payload+footer))
}

// writeDurable is the crash-consistency core: tmp write, tmp fsync,
// current→prev rotation, tmp→current rename, directory fsync. A crash (or
// injected fault) at any step leaves either the old generation in place or
// the old generation as *.prev — never zero complete generations, and
// never a half-written current (the footer check catches the torn-write
// disks that ignore the fsync).
func (s *Store) writeDurable(name string, data []byte) error {
	full := filepath.Join(s.dir, name)
	tmp := full + ".tmp"
	if err := s.fs.WriteFile(tmp, data); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := s.fs.Sync(tmp); err != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if _, err := s.fs.Stat(full); err == nil {
		if err := s.fs.Rename(full, full+prevSuffix); err != nil {
			return fmt.Errorf("checkpoint: rotate %s: %w", full, err)
		}
	}
	if err := s.fs.Rename(tmp, full); err != nil {
		return fmt.Errorf("checkpoint: rename %s: %w", tmp, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir %s: %w", s.dir, err)
	}
	return nil
}

// Exists reports whether a checkpoint is present: some generation (current
// or previous) of both files.
func (s *Store) Exists() bool {
	return s.anyGeneration(intervalsFile) && s.anyGeneration(solutionFile)
}

func (s *Store) anyGeneration(name string) bool {
	if _, err := s.fs.Stat(filepath.Join(s.dir, name)); err == nil {
		return true
	}
	_, err := s.fs.Stat(filepath.Join(s.dir, name+prevSuffix))
	return err == nil
}

// Load reads the latest loadable snapshot. Each of the two files
// independently falls back to its previous generation when the current one
// is corrupt (the corrupt file is quarantined and counted); mixing
// generations is safe — an older SOLUTION only weakens the incumbent bound
// and an older INTERVALS only enlarges the frontier, both pure rework,
// never a lost region. When any fallback happened the restored epoch is
// raised above every epoch findable on disk (including quarantined files),
// so ids issued by the newer, lost incarnation can never collide with ids
// the restored farmer will issue.
func (s *Store) Load() (Snapshot, error) {
	var snap Snapshot
	fellBack := false
	fromPrev, err := s.loadGeneration(intervalsFile, "intervals", func(lines []string) error {
		part, err := parseIntervalLines(lines)
		if err != nil {
			return err
		}
		snap.Epoch, snap.NextID, snap.TotalLen, snap.Intervals = part.epoch, part.nextID, part.total, part.records
		return nil
	})
	if err != nil {
		return Snapshot{}, err
	}
	fellBack = fellBack || fromPrev
	fromPrev, err = s.loadGeneration(solutionFile, "solution", func(lines []string) error {
		part, err := parseSolutionLines(lines)
		if err != nil {
			return err
		}
		snap.BestCost, snap.BestPath = part.cost, part.path
		return nil
	})
	if err != nil {
		return Snapshot{}, err
	}
	fellBack = fellBack || fromPrev
	if fellBack {
		s.stats.fallback.Add(1)
		if max := s.maxEpochOnDisk(); max > snap.Epoch {
			snap.Epoch = max
		}
	}
	return snap, nil
}

// loadGeneration tries the current generation of one file, then its
// previous one. parse must mutate its target only on success, so a failed
// current attempt leaves nothing behind for the prev attempt to collide
// with. Corrupt generations are quarantined as they are ruled out.
func (s *Store) loadGeneration(name, kind string, parse func(lines []string) error) (fromPrev bool, err error) {
	curErr := s.tryLoadFile(name, kind, parse)
	if curErr == nil {
		return false, nil
	}
	corrupt := false
	if !errors.Is(curErr, iofs.ErrNotExist) {
		s.quarantineFile(name)
		corrupt = true
	}
	prevErr := s.tryLoadFile(name+prevSuffix, kind, parse)
	if prevErr == nil {
		return true, nil
	}
	if !errors.Is(prevErr, iofs.ErrNotExist) {
		s.quarantineFile(name + prevSuffix)
		corrupt = true
	}
	if corrupt {
		return false, fmt.Errorf("checkpoint: %s: %w: %v", name, ErrCorrupt, curErr)
	}
	return false, fmt.Errorf("checkpoint: %s: %w", name, curErr)
}

func (s *Store) tryLoadFile(name, kind string, parse func(lines []string) error) error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	lines, err := parseBody(name, kind, data)
	if err != nil {
		return err
	}
	return parse(lines)
}

// quarantineFile moves a corrupt file into quarantine/ under a fresh
// numbered name, preserving its bytes. Best effort: if the move itself
// fails the file stays put (the next Save rotates over it), but the
// corruption is counted either way.
func (s *Store) quarantineFile(name string) {
	s.stats.corrupt.Add(1)
	src := filepath.Join(s.dir, name)
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := s.fs.MkdirAll(qdir); err != nil {
		return
	}
	for n := 0; n < 10000; n++ {
		dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", name, n))
		if _, err := s.fs.Stat(dst); err == nil {
			continue
		}
		_ = s.fs.Rename(src, dst)
		return
	}
}

// maxEpochOnDisk scans every intervals file the store can still see —
// current, previous, quarantined — for the highest recorded epoch,
// ignoring checksums (a corrupt file's epoch line is still the best
// available evidence of how high the lost incarnation counted). Used only
// after a fallback load, where restoring an older generation's epoch could
// otherwise re-issue ids the crashed incarnation already handed out.
func (s *Store) maxEpochOnDisk() int64 {
	var max int64
	scan := func(path string) {
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(data), "\n") {
			rest, ok := strings.CutPrefix(line, "epoch ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64); err == nil && v > max {
				max = v
			}
		}
	}
	scan(filepath.Join(s.dir, intervalsFile))
	scan(filepath.Join(s.dir, intervalsFile+prevSuffix))
	if entries, err := s.fs.ReadDir(filepath.Join(s.dir, quarantineDir)); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), intervalsFile) {
				scan(filepath.Join(s.dir, quarantineDir, e.Name()))
			}
		}
	}
	return max
}

// parseBody validates a snapshot file's framing and returns its body
// lines. The file must end in a valid footer line whose CRC covers header
// and body and whose record count matches the non-empty body lines.
func parseBody(name, kind string, data []byte) ([]string, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("checkpoint: %s: bad or missing header", name)
	}
	header := string(data[:nl])
	if !strings.HasPrefix(header, formatVersion) {
		return nil, fmt.Errorf("checkpoint: %s: bad or missing header", name)
	}
	if header != formatVersion+" "+kind {
		return nil, fmt.Errorf("checkpoint: %s: header %q is not a %s header", name, header, kind)
	}
	rest, err := checkFooter(name, data, data[nl+1:])
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, line := range strings.Split(string(rest), "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// checkFooter verifies the v2 trailer and returns the body with the footer
// line stripped. data is the whole file, body the part after the header.
func checkFooter(name string, data, body []byte) ([]byte, error) {
	if len(body) == 0 || !bytes.HasSuffix(data, []byte("\n")) {
		return nil, fmt.Errorf("checkpoint: %s: truncated (no trailing newline)", name)
	}
	trimmed := body[:len(body)-1]
	j := bytes.LastIndexByte(trimmed, '\n')
	footerLine := string(trimmed[j+1:]) // j == -1 means the body is just the footer
	fields := strings.Fields(footerLine)
	if len(fields) != 3 || fields[0] != "footer" {
		return nil, fmt.Errorf("checkpoint: %s: truncated or missing footer", name)
	}
	wantRecords, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: bad footer count %q", name, fields[1])
	}
	wantCRC, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: bad footer crc %q", name, fields[2])
	}
	payload := data[:len(data)-len(body)+j+1] // header + body lines, footer excluded
	if got := crc32.Checksum(payload, crcTable); got != uint32(wantCRC) {
		return nil, fmt.Errorf("checkpoint: %s: crc mismatch (file %08x, computed %08x)", name, wantCRC, got)
	}
	records := 0
	for _, line := range strings.Split(string(trimmed[:j+1]), "\n") {
		if strings.TrimSpace(line) != "" {
			records++
		}
	}
	if records != wantRecords {
		return nil, fmt.Errorf("checkpoint: %s: footer promises %d records, file has %d", name, wantRecords, records)
	}
	return body[:len(body)-len(footerLine)-1], nil
}

// intervalsPart is a fully parsed INTERVALS file.
type intervalsPart struct {
	epoch   int64
	nextID  int64
	total   *big.Int
	records []IntervalRecord
}

func parseIntervalLines(lines []string) (intervalsPart, error) {
	var p intervalsPart
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case "epoch":
			// Optional: the zero default makes the restore bump it to 1
			// either way.
			if len(fields) != 2 {
				return p, fmt.Errorf("checkpoint: bad epoch line %q", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return p, fmt.Errorf("checkpoint: bad epoch %q: %w", fields[1], err)
			}
			p.epoch = v
		case "nextid":
			if len(fields) != 2 {
				return p, fmt.Errorf("checkpoint: bad nextid line %q", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return p, fmt.Errorf("checkpoint: bad nextid %q: %w", fields[1], err)
			}
			p.nextID = v
		case "total":
			if len(fields) != 2 {
				return p, fmt.Errorf("checkpoint: bad total line %q", line)
			}
			total, ok := new(big.Int).SetString(fields[1], 10)
			if !ok {
				return p, fmt.Errorf("checkpoint: bad total %q", fields[1])
			}
			p.total = total
		case "interval":
			if len(fields) != 4 {
				return p, fmt.Errorf("checkpoint: bad interval line %q", line)
			}
			var rec IntervalRecord
			id, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return p, fmt.Errorf("checkpoint: bad interval id %q: %w", fields[1], err)
			}
			rec.ID = id
			if err := rec.Interval.UnmarshalText([]byte(fields[2] + " " + fields[3])); err != nil {
				return p, fmt.Errorf("checkpoint: %w", err)
			}
			p.records = append(p.records, rec)
		default:
			return p, fmt.Errorf("checkpoint: unknown record %q", fields[0])
		}
	}
	// Integrity cross-check: the incremental total the farmer carried must
	// match what the records actually sum to. This is the only place the
	// lengths are ever re-summed — at restore time, once, not per snapshot.
	if p.total != nil {
		sum := new(big.Int)
		for _, rec := range p.records {
			sum.Add(sum, rec.Interval.Len())
		}
		if sum.Cmp(p.total) != 0 {
			return p, fmt.Errorf("checkpoint: %s: interval records sum to %s but the recorded total is %s (corrupt or inconsistent snapshot)",
				intervalsFile, sum, p.total)
		}
	}
	return p, nil
}

// solutionPart is a fully parsed SOLUTION file.
type solutionPart struct {
	cost int64
	path []int
}

func parseSolutionLines(lines []string) (solutionPart, error) {
	var p solutionPart
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case "cost":
			if len(fields) != 2 {
				return p, fmt.Errorf("checkpoint: bad cost line %q", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return p, fmt.Errorf("checkpoint: bad cost %q: %w", fields[1], err)
			}
			p.cost = v
		case "path":
			p.path = make([]int, 0, len(fields)-1)
			for _, fstr := range fields[1:] {
				r, err := strconv.Atoi(fstr)
				if err != nil {
					return p, fmt.Errorf("checkpoint: bad path entry %q: %w", fstr, err)
				}
				p.path = append(p.path, r)
			}
		default:
			return p, fmt.Errorf("checkpoint: unknown record %q", fields[0])
		}
	}
	return p, nil
}
