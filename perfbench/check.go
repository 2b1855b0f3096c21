package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// Every PUT the benchmark sends carries a self-describing value: a
// header naming the connection, its sequence number and the key,
// followed by filler derived from the sequence number. A value read
// back can therefore be traced to the exact write that produced it,
// and a torn, stale or misrouted value fails to parse or to match.

// valueHeaderMax bounds the header length, so every value size the
// workloads use (64 B and up) holds a complete header.
const valueHeaderMax = 48

// makeValue builds the value connection conn writes at sequence seq.
func makeValue(conn int, seq, key uint64, size int) []byte {
	b := make([]byte, 0, size)
	b = append(b, 'v')
	b = strconv.AppendInt(b, int64(conn), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, key, 10)
	b = append(b, ':')
	for i := len(b); i < size; i++ {
		b = append(b, byte('a'+(uint64(i)+seq)%26))
	}
	return b
}

// parseValue decodes a written value, reporting false unless the value
// is byte-for-byte what makeValue produces for its header.
func parseValue(v []byte) (conn int, seq, key uint64, ok bool) {
	if len(v) < 2 || v[0] != 'v' {
		return 0, 0, 0, false
	}
	end := bytes.IndexByte(v, ':')
	if end < 0 || end > valueHeaderMax {
		return 0, 0, 0, false
	}
	parts := bytes.Split(v[1:end], []byte("."))
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	c, err1 := strconv.Atoi(string(parts[0]))
	s, err2 := strconv.ParseUint(string(parts[1]), 10, 64)
	k, err3 := strconv.ParseUint(string(parts[2]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	if !bytes.Equal(v, makeValue(c, s, k, len(v))) {
		return 0, 0, 0, false
	}
	return c, s, k, true
}

// prepopValue is the value the server stores for key at prepopulation
// (server.Store.PrepopulateOne: byte i is key+i).
func prepopValue(key uint64, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(key + uint64(i))
	}
	return v
}

// ackLog is what one connection knows about its own writes: the
// sequence number of its last acknowledged PUT per key.
type ackLog map[uint64]uint64

// checkFinal verifies a value read back once every connection is idle:
// it must be the last acknowledged write of one of the connections, or
// the prepopulated value when no connection wrote the key.
func checkFinal(key uint64, got []byte, found bool, acked []ackLog, prepopSize int) error {
	if !found {
		return fmt.Errorf("key %d: missing", key)
	}
	wrote := false
	for c, log := range acked {
		seq, ok := log[key]
		if !ok {
			continue
		}
		wrote = true
		gc, gs, gk, valid := parseValue(got)
		if valid && gc == c && gs == seq && gk == key {
			return nil
		}
	}
	if wrote {
		return fmt.Errorf("key %d: value %.40q is no connection's last acknowledged write", key, got)
	}
	if !bytes.Equal(got, prepopValue(key, prepopSize)) {
		return fmt.Errorf("key %d: unwritten key lost its prepopulated value", key)
	}
	return nil
}

// checkRead verifies a GET that connection reader sent during the
// window, while writes are in flight. The value must be a well-formed
// write of this key that some connection had already issued
// (issued[c] is connection c's next unused sequence number), or the
// key's prepopulated value. It must also respect what the reader has
// seen acknowledged (own): none of the reader's own writes older than
// its last acknowledged one, and no prepopulated value once it has an
// acknowledged write of the key.
func checkRead(key uint64, got []byte, found bool, reader int, own ackLog, issued func(conn int) uint64, prepopSize int) error {
	if !found {
		return fmt.Errorf("key %d: missing", key)
	}
	last, wrote := own[key]
	if c, s, k, ok := parseValue(got); ok {
		if k != key || c < 0 || c >= kvConns || s >= issued(c) {
			return fmt.Errorf("key %d: value of key %d, conn %d, seq %d was never issued here", key, k, c, s)
		}
		if wrote && c == reader && s < last {
			return fmt.Errorf("key %d: conn %d read its seq %d after seq %d was acknowledged", key, c, s, last)
		}
		return nil
	}
	if !bytes.Equal(got, prepopValue(key, prepopSize)) {
		return fmt.Errorf("key %d: value %.40q is neither written nor prepopulated", key, got)
	}
	if wrote {
		return fmt.Errorf("key %d: conn %d read the prepopulated value after its seq %d was acknowledged", key, reader, last)
	}
	return nil
}
