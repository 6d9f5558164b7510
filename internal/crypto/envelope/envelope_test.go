package envelope

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := mustKey(t)
	pt := []byte("alice: hello bob, this chat log is private")
	aad := []byte("bucket/alice-chat/room1")
	blob, err := Seal(key, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, blob, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestSealedBlobIsNotPlaintext(t *testing.T) {
	// The paper's core privacy property: data at rest must be
	// ciphertext. The plaintext must not appear as a substring of the
	// sealed blob.
	key := mustKey(t)
	pt := []byte("extremely secret message body 1234567890")
	blob, err := Seal(key, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, pt) {
		t.Fatal("plaintext leaked into sealed blob")
	}
	if !IsSealed(blob) {
		t.Fatal("sealed blob does not carry the envelope header")
	}
}

func TestOpenWrongKey(t *testing.T) {
	k1, k2 := mustKey(t), mustKey(t)
	blob, err := Seal(k1, []byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key: got %v, want ErrCorrupt", err)
	}
}

func TestOpenWrongAAD(t *testing.T) {
	// Binding the storage path as AAD means a ciphertext moved to a
	// different path fails to open — swap attacks are detected.
	key := mustKey(t)
	blob, err := Seal(key, []byte("data"), []byte("path/a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, blob, []byte("path/b")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong aad: got %v, want ErrCorrupt", err)
	}
}

func TestOpenTamperedCiphertext(t *testing.T) {
	key := mustKey(t)
	blob, err := Seal(key, []byte("data that matters"), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if _, err := Open(key, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered: got %v, want ErrCorrupt", err)
	}
}

func TestOpenNotSealed(t *testing.T) {
	key := mustKey(t)
	if _, err := Open(key, []byte("plaintext junk"), nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("got %v, want ErrNotSealed", err)
	}
	if _, err := Open(key, nil, nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("nil blob: got %v, want ErrNotSealed", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	key := mustKey(t)
	blob, err := Seal(key, []byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, blob[:6], nil); err == nil {
		t.Fatal("truncated blob opened")
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x"), nil); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("got %v, want ErrBadKeySize", err)
	}
	if _, err := Open([]byte("short"), append([]byte("DIY\x01"), make([]byte, 40)...), nil); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("got %v, want ErrBadKeySize", err)
	}
}

// TestCipherMatchesPackageFuncs: a Cipher keyed once seals and opens
// the same format as the one-shot Seal and Open, in both directions.
func TestCipherMatchesPackageFuncs(t *testing.T) {
	key := mustKey(t)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	pt, aad := []byte("room document"), []byte("room")
	blob, err := c.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if want := HeaderSize + len(pt) + TagSize; len(blob) != want {
		t.Fatalf("sealed %d bytes, want %d", len(blob), want)
	}
	if got, err := Open(key, blob, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open(Cipher.Seal) = %q, %v", got, err)
	}
	blob, err = Seal(key, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Open(blob, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Cipher.Open(Seal) = %q, %v", got, err)
	}
	if _, err := c.Open(blob, []byte("inbox:bob")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Cipher.Open with the wrong aad: %v, want ErrCorrupt", err)
	}
	if got, err := c.OpenInPlace(blob, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Cipher.OpenInPlace(Seal) = %q, %v", got, err)
	}

	// SealInPlace over a buffer with the header reserved seals without
	// copying and writes the same format.
	buf := append(make([]byte, HeaderSize, HeaderSize+len(pt)+TagSize), pt...)
	blob, err = c.SealInPlace(buf, aad)
	if err != nil {
		t.Fatal(err)
	}
	if &blob[0] != &buf[0] || len(blob) != HeaderSize+len(pt)+TagSize {
		t.Fatalf("SealInPlace returned %d bytes, not in the caller's buffer", len(blob))
	}
	if got, err := Open(key, blob, aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open(Cipher.SealInPlace) = %q, %v", got, err)
	}
	if _, err := NewCipher([]byte("short")); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("NewCipher(short key): %v, want ErrBadKeySize", err)
	}
}

func TestNoncesUnique(t *testing.T) {
	key := mustKey(t)
	a, _ := Seal(key, []byte("x"), nil)
	b, _ := Seal(key, []byte("x"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext are identical: nonce reuse")
	}
}

func TestIsSealed(t *testing.T) {
	if IsSealed(nil) || IsSealed([]byte("DI")) || IsSealed([]byte("PLAINTEXT")) {
		t.Fatal("IsSealed false positives")
	}
	if !IsSealed([]byte{'D', 'I', 'Y', 1, 0, 0}) {
		t.Fatal("IsSealed false negative")
	}
}

func TestEnvelopeEncodeDecode(t *testing.T) {
	key := mustKey(t)
	sealed, err := Seal(key, []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{WrappedKey: []byte("wrapped-by-kms"), Sealed: sealed}
	blob := env.Encode()
	if !IsSealed(blob) {
		t.Fatal("encoded envelope must pass IsSealed")
	}
	got, err := DecodeEnvelope(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.WrappedKey, env.WrappedKey) || !bytes.Equal(got.Sealed, env.Sealed) {
		t.Fatal("envelope round trip mismatch")
	}
	pt, err := Open(key, got.Sealed, nil)
	if err != nil || string(pt) != "payload" {
		t.Fatalf("payload open failed: %v %q", err, pt)
	}
}

func TestDecodeEnvelopeRejectsRawSeal(t *testing.T) {
	key := mustKey(t)
	sealed, _ := Seal(key, []byte("x"), nil)
	if _, err := DecodeEnvelope(sealed); err == nil {
		t.Fatal("raw Seal output decoded as an Envelope")
	}
}

func TestDecodeEnvelopeCorruptLength(t *testing.T) {
	env := &Envelope{WrappedKey: bytes.Repeat([]byte{1}, 16), Sealed: []byte("s")}
	blob := env.Encode()
	// Inflate the declared wrapped-key length past the body.
	blob[len(magic)+1] = 0xff
	if _, err := DecodeEnvelope(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestZero(t *testing.T) {
	k := mustKey(t)
	Zero(k)
	for _, b := range k {
		if b != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	// Property: any payload round-trips under any aad.
	key := mustKey(t)
	f := func(pt, aad []byte) bool {
		blob, err := Seal(key, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(key, blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(wrapped, sealedBody []byte) bool {
		env := &Envelope{WrappedKey: wrapped, Sealed: sealedBody}
		got, err := DecodeEnvelope(env.Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(got.WrappedKey, wrapped) && bytes.Equal(got.Sealed, sealedBody)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
