package graph

// This file implements the varint delta codec for compressed adjacency
// (compress.go). Each vertex's neighbor list is stored as byte-level deltas
// against a strictly ascending int32 sequence:
//
//   - the first neighbor is encoded as the zigzag of (neigh[0] - v), since it
//     can precede or follow v;
//   - every subsequent neighbor is encoded as uvarint(neigh[i]-neigh[i-1]-1):
//     lists are strictly ascending, so the gap is >= 1 and the -1 keeps
//     consecutive runs in the 1-byte range.
//
// On the paper's topologies this averages a little over one byte per
// directed edge entry versus four for the flat CSR — the "roughly halves
// edge-array bytes" the large-graph mode is built on. The decoder is a
// manual loop rather than binary.Uvarint because it sits inside every edge
// scan both traversal kernels make of a compressed graph (Graph.adjInto).

// appendUvarint appends x in LEB128 form.
func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// zigzag maps a signed delta to an unsigned code with small magnitudes small.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendAdj encodes vertex v's strictly ascending neighbor list.
func appendAdj(dst []byte, v int32, neigh []int32) []byte {
	if len(neigh) == 0 {
		return dst
	}
	dst = appendUvarint(dst, zigzag(int64(neigh[0])-int64(v)))
	for i := 1; i < len(neigh); i++ {
		dst = appendUvarint(dst, uint64(neigh[i]-neigh[i-1])-1)
	}
	return dst
}

// decodeAdjInto decodes count neighbors of v from src into dst[:count].
// src must be exactly the bytes appendAdj produced for (v, neigh); the
// decoder is not hardened against foreign input (the encoding is an internal
// storage format, never an interchange one).
func decodeAdjInto(src []byte, v int32, count int, dst []int32) []int32 {
	dst = dst[:count]
	if count == 0 {
		return dst
	}
	pos := 0
	var x uint64
	var s uint
	for {
		b := src[pos]
		pos++
		if b < 0x80 {
			x |= uint64(b) << s
			break
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	prev := v + int32(unzigzag(x))
	dst[0] = prev
	for i := 1; i < count; i++ {
		var d uint32
		var s uint
		for {
			b := src[pos]
			pos++
			if b < 0x80 {
				d |= uint32(b) << s
				break
			}
			d |= uint32(b&0x7f) << s
			s += 7
		}
		prev += int32(d) + 1
		dst[i] = prev
	}
	return dst
}

// scanAdjFor reports whether target appears in vertex v's encoded neighbor
// list without materializing it. Early-exits on the ascending order.
func scanAdjFor(src []byte, v int32, count int, target int32) bool {
	if count == 0 {
		return false
	}
	pos := 0
	var x uint64
	var s uint
	for {
		b := src[pos]
		pos++
		if b < 0x80 {
			x |= uint64(b) << s
			break
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	prev := v + int32(unzigzag(x))
	if prev == target {
		return true
	}
	for i := 1; i < count && prev < target; i++ {
		var d uint32
		var s uint
		for {
			b := src[pos]
			pos++
			if b < 0x80 {
				d |= uint32(b) << s
				break
			}
			d |= uint32(b&0x7f) << s
			s += 7
		}
		prev += int32(d) + 1
		if prev == target {
			return true
		}
	}
	return false
}
