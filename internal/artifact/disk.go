package artifact

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Disk tier: append-only segment files in one directory,
//
//	<dir>/seg-v1/<unique>.seg
//
// A store creates one segment of its own (a fresh name, opened O_EXCL) on
// its first disk write and appends every record to it with one write, so a
// record is in the file before Put returns and a store needs no Close. On
// its first disk access the store builds an index: it reads the segments
// present, verifies each record and maps (kind, key) to (segment, offset,
// length). Payloads are hashed on the way past, never kept. A lookup reads
// one record with ReadAt and validates it again.
//
// Every record is self-validating:
//
//	magic "dcseg1\n" | kind | '\n' | key (32 B) | payload len (8 B LE)
//	| payload | sha256(everything before it) (32 B)
//
// The checksum covers the header too, so a damaged kind, key or length is
// rejected rather than filed under a wrong key. A record that does not check
// out — stale magic, wrong kind or key, wrong length, wrong checksum — is a
// miss counted in artifact.corrupt, never an error or a wrong payload. A
// framed record that fails its checksum is skipped and the scan goes on
// past it; a record that cannot be framed (bad magic, a length past the end
// of the file) ends the scan of its segment, so a torn tail costs only the
// record it cuts. Within a segment the last valid copy of a key wins, since
// a store appends a replacement (PutUnless) after the record it replaces;
// across segments the first segment read that holds the key wins. A store's
// own later write of a key replaces it in that store's index.
//
// Processes can share a directory: each appends only to its own segment and
// sees the segments present when it built its index plus its own writes, so
// two processes on one directory at worst redo work. Open files and index
// time stay bounded: a store that finds more than maxSegments segments
// merges their valid records into its own segment and removes the inputs.
//
// Segments live in their own directory, so per-entry files that older
// builds wrote under <dir>/v1 are neither read nor removed.

var recMagic = []byte("dcseg1\n")

const (
	segDir    = "seg-v1"
	segSuffix = ".seg"
	// maxSegments bounds the segments a store reads at once. Above it the
	// store merges them into its own segment.
	maxSegments = 16
)

// recLoc locates one record: its segment, byte offset, and length.
type recLoc struct {
	seg    int
	off, n int64
}

// disk is a store's view of its segment directory. once builds the index;
// mu guards everything after that.
type disk struct {
	dir  string
	once sync.Once

	mu      sync.RWMutex
	segs    []*os.File
	index   map[mkey]recLoc
	own     int   // this store's segment in segs; -1 before the first write
	ownOff  int64 // its length
	noWrite bool  // a create or append failed: the disk takes no more writes
}

// diskIndex builds the index on the first disk access and returns the tier.
func (s *Store) diskIndex() *disk {
	s.disk.once.Do(s.loadIndex)
	return &s.disk
}

func (s *Store) loadIndex() {
	d := &s.disk
	d.index = map[mkey]recLoc{}
	d.own = -1
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.reg.Counter("artifact.disk_errors").Inc()
		}
		return
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) > maxSegments {
		if s.createSegment() {
			s.merge(names)
			return
		}
		names = names[:maxSegments] // a read-only directory: read what the bound allows
	}
	for _, name := range names {
		f, err := os.Open(filepath.Join(d.dir, name))
		if err != nil {
			if !os.IsNotExist(err) { // else a concurrent merge took it
				s.reg.Counter("artifact.disk_errors").Inc()
			}
			continue
		}
		seg := len(d.segs)
		d.segs = append(d.segs, f)
		s.scan(f, func(mk mkey, off, n int64) {
			if loc, dup := d.index[mk]; !dup || loc.seg == seg {
				d.index[mk] = recLoc{seg, off, n}
			}
		})
	}
}

// merge copies every key's winning record in the named segments (the last
// valid copy within the first input that holds the key) into this store's
// new segment, then removes the inputs. At an I/O error it stops, removes
// nothing and writes no more to its segment: what it copied stays indexed,
// and the records it did not reach are misses.
func (s *Store) merge(names []string) {
	d := &s.disk
	w := bufio.NewWriterSize(d.segs[d.own], 64<<10)
	type copyRec struct {
		mk     mkey
		off, n int64
	}
	var copies []copyRec // the current input's records to copy
	at := map[mkey]int{} // key → its place in copies
	var buf []byte
	ok := true
	for _, name := range names {
		f, err := os.Open(filepath.Join(d.dir, name))
		if os.IsNotExist(err) {
			continue // a concurrent merge took it
		}
		if ok = err == nil; !ok {
			break
		}
		copies = copies[:0]
		clear(at)
		ok = s.scan(f, func(mk mkey, off, n int64) {
			if j, dup := at[mk]; dup {
				copies[j] = copyRec{mk, off, n} // a later copy in this input
			} else if _, dup := d.index[mk]; !dup {
				at[mk] = len(copies)
				copies = append(copies, copyRec{mk, off, n})
			}
		})
		for _, c := range copies {
			buf = slices.Grow(buf[:0], int(c.n))[:c.n]
			if _, err := f.ReadAt(buf, c.off); err != nil {
				ok = false
				break
			}
			w.Write(buf)
			d.index[c.mk] = recLoc{d.own, d.ownOff, c.n}
			d.ownOff += c.n
		}
		f.Close()
		if !ok {
			break
		}
	}
	if w.Flush() != nil || !ok {
		s.reg.Counter("artifact.disk_errors").Inc()
		d.noWrite = true
		return
	}
	for _, name := range names {
		os.Remove(filepath.Join(d.dir, name))
	}
}

// createSegment opens this store's own segment. Called with d.mu held or
// before the index is published.
func (s *Store) createSegment() bool {
	d := &s.disk
	if d.noWrite {
		return false
	}
	if err := os.MkdirAll(d.dir, 0o755); err == nil {
		if f, err := os.CreateTemp(d.dir, "*"+segSuffix); err == nil {
			d.own, d.ownOff = len(d.segs), 0
			d.segs = append(d.segs, f)
			return true
		}
	}
	d.noWrite = true
	return false
}

// scan walks the records of one segment in order and calls visit for each
// one whose checksum verifies. Each defective record counts as corrupt: a
// framed one is skipped, and one that cannot be framed ends the scan. It
// reports false when the segment cannot be read at all.
func (s *Store) scan(f *os.File, visit func(mk mkey, off, n int64)) bool {
	fi, err := f.Stat()
	if err != nil {
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	sc := scanner{
		r:     bufio.NewReaderSize(io.NewSectionReader(f, 0, fi.Size()), 64<<10),
		h:     sha256.New(),
		kinds: map[string]Kind{},
	}
	for off, size := int64(0), fi.Size(); off < size; {
		mk, n, valid := sc.next(size - off)
		if n == 0 || !valid {
			s.reg.Counter("artifact.corrupt").Inc()
		}
		if n == 0 {
			break
		}
		if valid {
			visit(mk, off, n)
		}
		off += n
	}
	return true
}

// scanner reads records sequentially, hashing each on the way past; it
// keeps no payload.
type scanner struct {
	r     *bufio.Reader
	h     hash.Hash
	kinds map[string]Kind // interned kind strings
	hdr   [sha256.Size + 8]byte
	sum   [2][sha256.Size]byte
}

// next reads the record at the reader's position, with rest bytes left in
// the segment. It returns the record's identity, its length (0 when it
// cannot be framed), and whether its checksum verifies.
func (sc *scanner) next(rest int64) (mk mkey, n int64, valid bool) {
	sc.h.Reset()
	magic := sc.hdr[:len(recMagic)]
	if _, err := io.ReadFull(sc.r, magic); err != nil || !bytes.Equal(magic, recMagic) {
		return mk, 0, false
	}
	sc.h.Write(recMagic)
	line, err := sc.r.ReadSlice('\n')
	if err != nil {
		return mk, 0, false
	}
	sc.h.Write(line)
	kind, ok := sc.kinds[string(line)]
	if !ok {
		kind = Kind(line[:len(line)-1])
		sc.kinds[string(line)] = kind
	}
	head := int64(len(recMagic) + len(line) + len(sc.hdr))
	if _, err := io.ReadFull(sc.r, sc.hdr[:]); err != nil {
		return mk, 0, false
	}
	sc.h.Write(sc.hdr[:])
	plen := binary.LittleEndian.Uint64(sc.hdr[sha256.Size:])
	if max := rest - head - sha256.Size; max < 0 || plen > uint64(max) {
		return mk, 0, false
	}
	if _, err := io.CopyN(sc.h, sc.r, int64(plen)); err != nil {
		return mk, 0, false
	}
	if _, err := io.ReadFull(sc.r, sc.sum[0][:]); err != nil {
		return mk, 0, false
	}
	mk.kind = kind
	copy(mk.key[:], sc.hdr[:sha256.Size])
	return mk, head + int64(plen) + sha256.Size, sc.sum[0] == [sha256.Size]byte(sc.h.Sum(sc.sum[1][:0]))
}

// diskRead loads and validates one record; any defect is a miss.
func (s *Store) diskRead(mk mkey) ([]byte, bool) {
	d := s.diskIndex()
	d.mu.RLock()
	loc, ok := d.index[mk]
	var f *os.File
	if ok {
		f = d.segs[loc.seg]
	}
	d.mu.RUnlock()
	if !ok {
		return nil, false
	}
	rec := make([]byte, loc.n)
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		if err == io.EOF {
			s.reg.Counter("artifact.corrupt").Inc()
		} else {
			s.reg.Counter("artifact.disk_errors").Inc()
		}
		return nil, false
	}
	payload, ok := decodeRecord(rec, mk)
	if !ok {
		s.reg.Counter("artifact.corrupt").Inc()
		return nil, false
	}
	return payload, true
}

// decodeRecord validates the magic, identity, length, and checksum of one
// raw record and returns its payload.
func decodeRecord(b []byte, mk mkey) ([]byte, bool) {
	head := len(recMagic) + len(mk.kind) + 1 + len(mk.key) + 8
	if len(b) < head+sha256.Size {
		return nil, false
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if !bytes.HasPrefix(body, recMagic) {
		return nil, false
	}
	h := body[len(recMagic):]
	if string(h[:len(mk.kind)]) != string(mk.kind) || h[len(mk.kind)] != '\n' {
		return nil, false
	}
	h = h[len(mk.kind)+1:]
	if !bytes.Equal(h[:len(mk.key)], mk.key[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint64(h[len(mk.key):]) != uint64(len(body)-head) {
		return nil, false
	}
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, false
	}
	return body[head:], true
}

// encodeRecord renders the on-disk form of one record.
func encodeRecord(mk mkey, payload []byte) []byte {
	out := make([]byte, 0, len(recMagic)+len(mk.kind)+1+len(mk.key)+8+len(payload)+sha256.Size)
	out = append(out, recMagic...)
	out = append(out, mk.kind...)
	out = append(out, '\n')
	out = append(out, mk.key[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// diskWrite appends one record to this store's segment; failures are
// counted and swallowed (the memory tier still has the artifact). A failed
// append may leave a torn record, and records behind it would be lost to
// every scan, so the segment then takes no more.
func (s *Store) diskWrite(mk mkey, payload []byte) bool {
	d := s.diskIndex()
	rec := encodeRecord(mk, payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.own < 0 && !d.noWrite {
		s.createSegment()
	}
	if d.noWrite {
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	if _, err := d.segs[d.own].Write(rec); err != nil {
		d.noWrite = true
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	d.index[mk] = recLoc{d.own, d.ownOff, int64(len(rec))}
	d.ownOff += int64(len(rec))
	return true
}
