package capture

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"sync"
)

// PrefixPreservingAnonymizer implements Crypto-PAn style one-way IPv4
// address anonymization: two addresses sharing a k-bit prefix map to
// anonymized addresses sharing a k-bit prefix. This is the property the
// ONTAS system used in the paper's capture pipeline relies on — campus
// operators can still aggregate anonymized traffic by subnet or
// building without being able to invert the mapping.
//
// The construction is the standard one (Xu et al., 2002): for each bit
// position i, the anonymized bit is the original bit XOR the most
// significant bit of a keyed PRF applied to the i-bit prefix. AES-128
// is the PRF; the key is derived from the caller's secret.
type PrefixPreservingAnonymizer struct {
	block cipher.Block
	pad   [16]byte

	mu    sync.Mutex
	cache map[[4]byte][4]byte
}

// NewPrefixPreservingAnonymizer derives the AES key and padding block
// from an arbitrary-length secret.
func NewPrefixPreservingAnonymizer(secret []byte) *PrefixPreservingAnonymizer {
	sum := sha256.Sum256(secret)
	block, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic("capture: aes key: " + err.Error())
	}
	a := &PrefixPreservingAnonymizer{block: block, cache: make(map[[4]byte][4]byte)}
	// The pad randomizes the PRF input for short prefixes.
	a.block.Encrypt(a.pad[:], sum[16:32])
	return a
}

// Addr anonymizes an IPv4 address prefix-preservingly. Non-IPv4
// addresses are returned unchanged.
func (a *PrefixPreservingAnonymizer) Addr(addr netip.Addr) netip.Addr {
	if !addr.Is4() {
		return addr
	}
	in := addr.As4()
	a.mu.Lock()
	if out, ok := a.cache[in]; ok {
		a.mu.Unlock()
		return netip.AddrFrom4(out)
	}
	a.mu.Unlock()

	orig := binary.BigEndian.Uint32(in[:])
	var result uint32
	var input, output [16]byte
	for i := 0; i < 32; i++ {
		// PRF input: the i-bit prefix of the original address, padded
		// with the keyed pad so different prefix lengths decorrelate.
		var prefix uint32
		if i > 0 {
			prefix = orig &^ (1<<(32-i) - 1) // keep top i bits
		}
		copy(input[:], a.pad[:])
		binary.BigEndian.PutUint32(input[0:4], prefix|(binary.BigEndian.Uint32(a.pad[0:4])&(1<<(32-i)-1)))
		input[4] ^= byte(i) // bind the position
		a.block.Encrypt(output[:], input[:])
		flip := uint32(output[0]>>7) & 1
		bit := (orig >> (31 - i)) & 1
		result |= (bit ^ flip) << (31 - i)
	}
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], result)
	a.mu.Lock()
	if len(a.cache) < 1<<20 {
		a.cache[in] = out
	}
	a.mu.Unlock()
	return netip.AddrFrom4(out)
}
