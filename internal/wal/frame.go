package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk layout. Every segment starts with an 8-byte magic; each record is
// framed as
//
//	u32 little-endian payload length
//	u32 little-endian CRC-32C (Castagnoli) of the payload
//	payload (JSON-encoded Record)
//
// A crash can tear the final frame anywhere — mid-header, mid-payload, or
// leave a payload whose checksum does not match the bytes that made it to
// disk. DecodeAll treats any such suffix as the torn tail and returns every
// record before it; recovery truncates the file at that offset before
// appending again.

const (
	// segmentMagic begins every WAL segment file.
	segmentMagic = "SQLSWAL1"
	// snapshotMagic begins every snapshot file.
	snapshotMagic = "SQLSSNP1"
	// frameHeaderSize is the length + CRC prefix of each record.
	frameHeaderSize = 8
	// maxFrameSize caps a single record (a full journaled table upload fits
	// comfortably; anything larger is corruption, not data).
	maxFrameSize = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSegment reports a file that does not start with the WAL magic —
// not a torn tail but a file that was never a segment.
var ErrBadSegment = errors.New("wal: not a log segment (bad magic)")

// EncodeRecord renders rec as one framed record. A table that travels
// pre-encoded (TableJSON) is spliced into the marshalled envelope where its
// "table" key stands: the table is the last field of CreateDataset and
// Materialize, and each is the last field of a record that carries it, so
// the envelope ends in `"table":null}}` and the result is the bytes the
// record would marshal to with its table decoded into Table.
func EncodeRecord(rec *Record) ([]byte, error) {
	env, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	tbl := rec.tableJSON()
	if tbl == nil {
		return appendFrame(make([]byte, 0, frameHeaderSize+len(env)), env), nil
	}
	if !bytes.HasSuffix(env, []byte(`"table":null}}`)) {
		return nil, fmt.Errorf("wal: encode record: %s record carries both a decoded and an encoded table", rec.Op)
	}
	env = env[:len(env)-len(`null}}`)]
	data := make([]byte, frameHeaderSize, frameHeaderSize+len(env)+len(tbl)+len(`}}`))
	data = append(data, env...)
	data = append(data, tbl...)
	data = append(data, `}}`...)
	hdr := frameHeader(len(data)-frameHeaderSize, crc32.Checksum(data[frameHeaderSize:], crcTable))
	copy(data, hdr[:])
	return data, nil
}

// tableJSON is the pre-encoded table rec carries, or nil.
func (rec *Record) tableJSON() []byte {
	switch {
	case rec.CreateDataset != nil:
		return rec.CreateDataset.TableJSON
	case rec.Materialize != nil:
		return rec.Materialize.TableJSON
	}
	return nil
}

func appendFrame(buf, payload []byte) []byte {
	hdr := frameHeader(len(payload), crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameHeader is the length + CRC prefix of a payload.
func frameHeader(payloadLen int, crc uint32) [frameHeaderSize]byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return hdr
}

// decodeFrame reads one frame from data. It returns the payload and the
// total frame length, or ok=false when the remaining bytes do not hold one
// complete, checksum-valid frame (the torn-tail condition).
func decodeFrame(data []byte) (payload []byte, frameLen int, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxFrameSize || int(n) > len(data)-frameHeaderSize {
		return nil, 0, false
	}
	payload = data[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, false
	}
	return payload, frameHeaderSize + int(n), true
}

// DecodeAll decodes a segment's records. data is the whole file including
// the magic. It returns the decoded records and validLen, the byte offset
// of the first torn or trailing-garbage byte (== len(data) when the
// segment is fully intact). A file too short to hold the magic decodes as
// empty with validLen 0 — the crash-during-creation case. A present but
// wrong magic is ErrBadSegment; a record whose checksum passes but whose
// JSON does not decode is hard corruption, not a torn tail, and is an
// error too.
func DecodeAll(data []byte) (recs []*Record, validLen int64, err error) {
	if len(data) < len(segmentMagic) {
		return nil, 0, nil
	}
	if string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, 0, ErrBadSegment
	}
	off := int64(len(segmentMagic))
	for {
		payload, frameLen, ok := decodeFrame(data[off:])
		if !ok {
			return recs, off, nil
		}
		rec := &Record{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return recs, off, fmt.Errorf("wal: record at offset %d: checksum valid but undecodable: %w", off, err)
		}
		recs = append(recs, rec)
		off += int64(frameLen)
	}
}
