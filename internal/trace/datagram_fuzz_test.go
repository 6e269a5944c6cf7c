package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzPacket builds one capture datagram: header plus payload.
func fuzzPacket(seq uint32, payload string) []byte {
	pkt := make([]byte, dgHeaderLen, dgHeaderLen+len(payload))
	copy(pkt, dgMagic)
	binary.LittleEndian.PutUint16(pkt[4:6], dgVersion)
	binary.LittleEndian.PutUint32(pkt[6:10], seq)
	return append(pkt, payload...)
}

// fuzzPackets frames packets for FuzzDatagramAccept: each one is a
// length byte followed by that many bytes.
func fuzzPackets(pkts ...[]byte) []byte {
	var out []byte
	for _, p := range pkts {
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzDatagramAccept feeds arbitrary packet sequences to the datagram
// reassembler. The input is a run of length-prefixed packets (one
// length byte each; a short tail is the last packet). accept must
// never panic, must classify every packet exactly once — Datagrams +
// LateChunks + Rejected equals the packets fed — and the pending
// bytes must always be a suffix of the last accepted packet.
func FuzzDatagramAccept(f *testing.F) {
	f.Add(fuzzPackets(fuzzPacket(0, "VPTR-head"), fuzzPacket(1, "chunk-1"), fuzzPacket(2, "chunk-2")))
	f.Add(fuzzPackets(fuzzPacket(0, "a"), fuzzPacket(3, "hole"), fuzzPacket(1, "late"), fuzzPacket(3, "dup")))
	f.Add(fuzzPackets(fuzzPacket(0, ""), []byte("VPDX\x01\x00\x01\x00\x00\x00stray"), []byte("VPDG"), fuzzPacket(1, "x")))
	f.Add(fuzzPackets(fuzzPacket(0xFFFFFFFF, "wrap"), fuzzPacket(0, "after")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &DatagramReader{}
		var last []byte
		fed := int64(0)
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			pkt := append([]byte(nil), data[:n]...)
			data = data[n:]

			before := d.Gaps().Datagrams
			d.accept(pkt)
			fed++
			if d.Gaps().Datagrams > before {
				last = pkt
			}
			g := d.Gaps()
			if got := g.Datagrams + g.LateChunks + g.Rejected; got != fed {
				t.Fatalf("after %d packets: %d accepted + %d late + %d rejected = %d", fed, g.Datagrams, g.LateChunks, g.Rejected, got)
			}
			if g.LostChunks < 0 {
				t.Fatalf("negative loss count %d", g.LostChunks)
			}
			if len(d.pend) > 0 && !bytes.HasSuffix(last, d.pend) {
				t.Fatalf("pending bytes %q are not a suffix of the last accepted packet %q", d.pend, last)
			}
		}
	})
}
