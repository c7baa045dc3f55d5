// Package bloom implements the LevelDB-style Bloom filter used in every
// SSTable's filter block. The paper studies filter sizing directly
// (Fig 12(c,f) and Fig 13), so bits-per-key is a first-class knob here.
//
// The filter uses double hashing derived from a single 32-bit hash (the
// "Kirsch–Mitzenmacher" trick LevelDB uses): probe i checks bit
// h + i*delta where delta = rotate(h, 17).
package bloom

// Filter is an immutable encoded Bloom filter: bit array followed by one
// byte holding the probe count.
type Filter []byte

// New builds a filter over the given keys with the given bits per key.
// bitsPerKey below 1 is clamped to 1.
func New(keysList [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint32, len(keysList))
	for i, key := range keysList {
		hashes[i] = Hash(key)
	}
	return FromHashes(hashes, bitsPerKey)
}

// FromHashes builds the filter New builds over the keys whose Hash values
// these are, one per key: the hash is all of a key the filter uses, so a
// table builder keeps four bytes per entry instead of a copy of the key.
func FromHashes(hashes []uint32, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// Probe count ~ bits/key * ln(2); clamp like LevelDB.
	k := uint8(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := len(hashes) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	buf := make([]byte, nBytes+1)
	buf[nBytes] = k

	for _, h := range hashes {
		delta := h>>17 | h<<15
		for i := uint8(0); i < k; i++ {
			pos := h % uint32(bits)
			buf[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return buf
}

// MayContain reports whether key could be in the set. False negatives never
// occur; false positives occur at a rate governed by bits per key.
func (f Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// MayContainHash is MayContain for the key whose Hash is h, so that a lookup
// that consults several filters hashes its key once.
func (f Filter) MayContainHash(h uint32) bool {
	if len(f) < 2 {
		return false
	}
	bits := uint32(len(f)-1) * 8
	k := f[len(f)-1]
	if k > 30 {
		// Reserved for future encodings; treat as a match to stay safe.
		return true
	}
	delta := h>>17 | h<<15
	for i := uint8(0); i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is LevelDB's bloom hash: a Murmur-flavoured 32-bit hash with seed
// 0xbc9f1d34.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for len(data) >= 4 {
		h += uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		h *= m
		h ^= h >> 16
		data = data[4:]
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}
