// Package envelope implements the envelope encryption DIY applications
// apply to all data at rest: a per-object (or per-deployment) 256-bit
// data key encrypts the payload with AES-GCM, and the data key itself
// is stored only in wrapped form, encrypted by a KMS master key that
// never leaves the key management service.
//
// Sealed blobs carry a recognizable header so the enforcement layer in
// internal/core can verify that nothing written to cloud storage is
// plaintext (one of the paper's testable privacy invariants).
package envelope

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the data key length in bytes (AES-256).
const KeySize = 32

// magic prefixes every sealed blob: "DIY" plus a format version.
var magic = []byte{'D', 'I', 'Y', 1}

const nonceSize = 12

// Errors returned by this package.
var (
	ErrNotSealed  = errors.New("envelope: blob is not a sealed envelope")
	ErrBadKeySize = errors.New("envelope: data key must be 32 bytes")
	ErrCorrupt    = errors.New("envelope: ciphertext corrupt or wrong key")
)

// NewDataKey generates a fresh random data key.
func NewDataKey() ([]byte, error) {
	k := make([]byte, KeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("envelope: generating data key: %w", err)
	}
	return k, nil
}

// Cipher is AES-256-GCM keyed once from a data key. A caller that
// seals or opens several blobs under one key (a function invocation
// touching its room document and every member's inbox) builds one
// Cipher and skips the per-blob key schedule. Keep it no longer than
// the data key it came from: it holds the expanded key.
type Cipher struct {
	aead cipher.AEAD
}

// NewCipher keys a Cipher from a data key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Cipher{aead: aead}, nil
}

// Sealed blob layout: a HeaderSize header (magic || nonce), then the
// ciphertext, which ends in a TagSize authentication tag.
const (
	HeaderSize = 4 + nonceSize
	TagSize    = 16
)

// Seal encrypts plaintext with AES-256-GCM, binding the optional
// associated data aad (e.g. the object's storage path, so a ciphertext
// cannot be swapped between locations undetected). The returned blob
// is magic || nonce || ciphertext.
func (c *Cipher) Seal(plaintext, aad []byte) ([]byte, error) {
	out := make([]byte, HeaderSize, HeaderSize+len(plaintext)+TagSize)
	return c.seal(out, plaintext, aad)
}

// SealInPlace seals buf[HeaderSize:] in buf's own storage and writes the
// header over buf[:HeaderSize], returning the blob Seal would return
// for that plaintext. A caller that encodes its plaintext after
// HeaderSize reserved bytes, with TagSize spare capacity, saves Seal's
// copy.
func (c *Cipher) SealInPlace(buf, aad []byte) ([]byte, error) {
	return c.seal(buf[:HeaderSize], buf[HeaderSize:], aad)
}

// seal fills header (HeaderSize bytes) with magic and a fresh nonce and
// appends the ciphertext of plaintext to it.
func (c *Cipher) seal(header, plaintext, aad []byte) ([]byte, error) {
	copy(header, magic)
	nonce := header[len(magic):]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("envelope: generating nonce: %w", err)
	}
	return c.aead.Seal(header, nonce, plaintext, aad), nil
}

// Open decrypts a blob produced by Seal under the same key and aad.
func (c *Cipher) Open(blob, aad []byte) ([]byte, error) {
	return c.open(blob, aad, false)
}

// OpenInPlace is Open decrypting into blob's own storage, for a caller
// that owns blob and needs only the plaintext: the result aliases blob,
// and blob is overwritten even when opening fails.
func (c *Cipher) OpenInPlace(blob, aad []byte) ([]byte, error) {
	return c.open(blob, aad, true)
}

func (c *Cipher) open(blob, aad []byte, inPlace bool) ([]byte, error) {
	if !IsSealed(blob) {
		return nil, ErrNotSealed
	}
	body := blob[len(magic):]
	if len(body) < nonceSize+c.aead.Overhead() {
		return nil, ErrCorrupt
	}
	nonce, ct := body[:nonceSize], body[nonceSize:]
	var dst []byte
	if inPlace {
		dst = ct[:0]
	}
	pt, err := c.aead.Open(dst, nonce, ct, aad)
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
}

// Seal encrypts plaintext under key: Cipher.Seal for a one-off key.
func Seal(key, plaintext, aad []byte) ([]byte, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Seal(plaintext, aad)
}

// Open decrypts a blob produced by Seal with the same key and aad:
// Cipher.Open for a one-off key.
func Open(key, blob, aad []byte) ([]byte, error) {
	if !IsSealed(blob) {
		return nil, ErrNotSealed
	}
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Open(blob, aad)
}

// IsSealed reports whether the blob carries the sealed-envelope header.
// The core enforcement layer uses this to reject plaintext writes to
// cloud storage.
func IsSealed(blob []byte) bool {
	if len(blob) < len(magic) {
		return false
	}
	for i, b := range magic {
		if blob[i] != b {
			return false
		}
	}
	return true
}

// Envelope bundles a payload ciphertext with the wrapped (KMS-encrypted)
// data key that protects it, so an object is self-describing: anyone
// holding the blob learns nothing; anyone with kms:Decrypt on the master
// key can unwrap the data key and open the payload.
type Envelope struct {
	// WrappedKey is the data key encrypted by the KMS master key.
	WrappedKey []byte
	// Sealed is the Seal()-format payload ciphertext.
	Sealed []byte
}

// Encode serializes the envelope: magic || 'E' || len(wrapped) ||
// wrapped || sealed. The distinct tag byte keeps Encode output and raw
// Seal output mutually distinguishable while both pass IsSealed.
func (e *Envelope) Encode() []byte {
	out := make([]byte, 0, len(magic)+1+4+len(e.WrappedKey)+len(e.Sealed))
	out = append(out, magic...)
	out = append(out, 'E')
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(e.WrappedKey)))
	out = append(out, lenBuf[:]...)
	out = append(out, e.WrappedKey...)
	out = append(out, e.Sealed...)
	return out
}

// DecodeEnvelope parses a blob produced by Encode.
func DecodeEnvelope(blob []byte) (*Envelope, error) {
	if !IsSealed(blob) || len(blob) < len(magic)+5 || blob[len(magic)] != 'E' {
		return nil, ErrNotSealed
	}
	body := blob[len(magic)+1:]
	n := binary.BigEndian.Uint32(body[:4])
	body = body[4:]
	if uint32(len(body)) < n {
		return nil, ErrCorrupt
	}
	return &Envelope{
		WrappedKey: append([]byte(nil), body[:n]...),
		Sealed:     append([]byte(nil), body[n:]...),
	}, nil
}

// Zero overwrites a key (or any secret) in place. The lambda runtime
// calls this when a container is scrubbed so key material exists in
// memory only while a function executes.
func Zero(secret []byte) {
	for i := range secret {
		secret[i] = 0
	}
}
