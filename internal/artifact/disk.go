package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
)

// Disk tier: one file per artifact under a 256-way sharded layout,
//
//	<dir>/v<FormatVersion>/<kind>/<hex[0:2]>/<hex>
//
// so no single directory accumulates an unbounded entry count and shards of
// the corpus artifact space can be synced, pruned, or distributed
// independently.
//
// Every entry is self-validating:
//
//	magic "dcart1\n" | kind | '\n' | key (32 B) | payload len (8 B LE)
//	| payload | sha256(payload) (32 B)
//
// A reader rejects anything that does not check out — wrong magic (a stale
// format), wrong kind or key (a cross-linked or renamed file), wrong length
// (truncation), wrong checksum (corruption) — and treats it as a miss,
// never an error. Writes go through a temp file + rename, so a crashed
// writer leaves either the old entry or no entry, never a torn one.

var diskMagic = []byte("dcart1\n")

// diskPath returns the entry path for a key.
func (s *Store) diskPath(mk mkey) string {
	hex := mk.key.String()
	return filepath.Join(s.cfg.Dir, "v1", string(mk.kind), hex[:2], hex)
}

// diskRead loads and validates one entry; any defect is a miss.
func (s *Store) diskRead(mk mkey) ([]byte, bool) {
	b, err := os.ReadFile(s.diskPath(mk))
	if err != nil {
		// Absent is the normal miss; any other read error means the disk
		// tier is unhealthy for this entry — same answer either way.
		if !os.IsNotExist(err) {
			s.reg.Counter("artifact.disk_errors").Inc()
		}
		return nil, false
	}
	payload, ok := decodeEntry(b, mk)
	if !ok {
		s.reg.Counter("artifact.corrupt").Inc()
		return nil, false
	}
	return payload, true
}

// decodeEntry validates the header, identity, length, and checksum of one
// raw entry and returns its payload.
func decodeEntry(b []byte, mk mkey) ([]byte, bool) {
	if !bytes.HasPrefix(b, diskMagic) {
		return nil, false
	}
	b = b[len(diskMagic):]
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 || string(b[:nl]) != string(mk.kind) {
		return nil, false
	}
	b = b[nl+1:]
	if len(b) < len(mk.key)+8 {
		return nil, false
	}
	if !bytes.Equal(b[:len(mk.key)], mk.key[:]) {
		return nil, false
	}
	b = b[len(mk.key):]
	n := binary.LittleEndian.Uint64(b[:8])
	b = b[8:]
	if uint64(len(b)) != n+sha256.Size {
		return nil, false
	}
	payload, sum := b[:n], b[n:]
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], sum) {
		return nil, false
	}
	return payload, true
}

// encodeEntry renders the on-disk form of one entry.
func encodeEntry(mk mkey, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	out := make([]byte, 0, len(diskMagic)+len(mk.kind)+1+len(mk.key)+8+len(payload)+len(sum))
	out = append(out, diskMagic...)
	out = append(out, mk.kind...)
	out = append(out, '\n')
	out = append(out, mk.key[:]...)
	out = append(out, lenBuf[:]...)
	out = append(out, payload...)
	out = append(out, sum[:]...)
	return out
}

// diskWrite persists one entry atomically; failures are counted and
// swallowed (the memory tier still has the artifact).
func (s *Store) diskWrite(mk mkey, payload []byte) bool {
	path := s.diskPath(mk)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	_, werr := tmp.Write(encodeEntry(mk, payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.reg.Counter("artifact.disk_errors").Inc()
		return false
	}
	return true
}
