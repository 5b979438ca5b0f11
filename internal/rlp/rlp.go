// Package rlp implements Ethereum's Recursive Length Prefix serialization.
// RLP encodes two kinds of items: byte strings and lists of items. It is
// used here for transaction/block hashing, trie node encoding, and the
// CREATE contract-address derivation keccak256(rlp([sender, nonce])).
package rlp

import (
	"errors"
	"fmt"
	"math/big"
)

// Kind distinguishes the two RLP item kinds.
type Kind int

const (
	// KindBytes is a byte-string item.
	KindBytes Kind = iota
	// KindList is a list item.
	KindList
)

// Item is a decoded RLP item: either a byte string or a list of items.
type Item struct {
	Kind  Kind
	Bytes []byte  // valid when Kind == KindBytes
	Items []*Item // valid when Kind == KindList
}

// Encoder is implemented by types that know how to append their own RLP
// encoding.
type Encoder interface {
	EncodeRLP() []byte
}

// Bytes returns a byte-string item.
func Bytes(b []byte) *Item { return &Item{Kind: KindBytes, Bytes: b} }

// String returns a byte-string item from a string.
func String(s string) *Item { return &Item{Kind: KindBytes, Bytes: []byte(s)} }

// Uint returns a byte-string item holding the minimal big-endian encoding
// of v (zero encodes as the empty string, per the RLP spec).
func Uint(v uint64) *Item { return Bytes(uintBytes(v)) }

// BigInt returns a byte-string item holding the minimal big-endian encoding
// of v, which must be non-negative.
func BigInt(v *big.Int) *Item {
	if v == nil || v.Sign() == 0 {
		return Bytes(nil)
	}
	return Bytes(v.Bytes())
}

// List returns a list item.
func List(items ...*Item) *Item { return &Item{Kind: KindList, Items: items} }

func uintBytes(v uint64) []byte {
	if v == 0 {
		return nil
	}
	var buf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		buf[7-i] = byte(v >> (8 * uint(i)))
	}
	for n < 8 && buf[n] == 0 {
		n++
	}
	return buf[n:]
}

// Encode returns the RLP encoding of the item tree.
func Encode(item *Item) []byte {
	return appendItem(nil, item)
}

// EncodeBytes returns the RLP encoding of a single byte string.
func EncodeBytes(b []byte) []byte { return Encode(Bytes(b)) }

// EncodeUint returns the RLP encoding of an unsigned integer.
func EncodeUint(v uint64) []byte { return Encode(Uint(v)) }

// EncodeList returns the RLP encoding of a list of items.
func EncodeList(items ...*Item) []byte { return Encode(List(items...)) }

func appendItem(dst []byte, item *Item) []byte {
	switch item.Kind {
	case KindBytes:
		return appendString(dst, item.Bytes)
	case KindList:
		var payload []byte
		for _, it := range item.Items {
			payload = appendItem(payload, it)
		}
		dst = appendLength(dst, 0xc0, len(payload))
		return append(dst, payload...)
	default:
		panic(fmt.Sprintf("rlp: invalid kind %d", item.Kind))
	}
}

func appendString(dst, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(dst, b[0])
	}
	dst = appendLength(dst, 0x80, len(b))
	return append(dst, b...)
}

func appendLength(dst []byte, offset byte, length int) []byte {
	if length < 56 {
		return append(dst, offset+byte(length))
	}
	lb := uintBytes(uint64(length))
	dst = append(dst, offset+55+byte(len(lb)))
	return append(dst, lb...)
}

// Decoding errors.
var (
	ErrTruncated     = errors.New("rlp: input truncated")
	ErrTrailingBytes = errors.New("rlp: trailing bytes after item")
	ErrCanonical     = errors.New("rlp: non-canonical encoding")
	ErrTooDeep       = errors.New("rlp: nesting too deep")
)

const maxDepth = 64

// Decode parses a complete RLP item from data, rejecting trailing bytes.
func Decode(data []byte) (*Item, error) {
	item, rest, err := decodeItem(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailingBytes
	}
	return item, nil
}

// DecodePrefix parses one RLP item from the front of data and returns the
// remaining bytes.
func DecodePrefix(data []byte) (*Item, []byte, error) {
	return decodeItem(data, 0)
}

func decodeItem(data []byte, depth int) (*Item, []byte, error) {
	if depth > maxDepth {
		return nil, nil, ErrTooDeep
	}
	kind, content, rest, err := Split(data)
	if err != nil {
		return nil, nil, err
	}
	if kind == KindBytes {
		return Bytes(content), rest, nil
	}
	var items []*Item
	for len(content) > 0 {
		item, tail, err := decodeItem(content, depth+1)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, item)
		content = tail
	}
	return &Item{Kind: KindList, Items: items}, rest, nil
}

// Split reads the header of the first item in data without decoding it:
// the item's kind, its content (a string's bytes, or a list's encoded
// payload), and the bytes after it. It allocates nothing and aliases data,
// so hot scanners (the trie's reachability walk) can step through an
// encoding in place.
func Split(data []byte) (kind Kind, content, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, ErrTruncated
	}
	b := data[0]
	var n int
	switch {
	case b < 0x80: // single byte
		return KindBytes, data[:1], data[1:], nil
	case b <= 0xb7: // short string
		kind, n, rest = KindBytes, int(b-0x80), data[1:]
		if n == 1 && len(rest) > 0 && rest[0] < 0x80 {
			return 0, nil, nil, ErrCanonical // should have been a single byte
		}
	case b <= 0xbf: // long string
		kind = KindBytes
		if n, rest, err = decodeLength(data[1:], int(b-0xb7)); err != nil {
			return 0, nil, nil, err
		}
		if n < 56 {
			return 0, nil, nil, ErrCanonical
		}
	case b <= 0xf7: // short list
		kind, n, rest = KindList, int(b-0xc0), data[1:]
	default: // long list
		kind = KindList
		if n, rest, err = decodeLength(data[1:], int(b-0xf7)); err != nil {
			return 0, nil, nil, err
		}
		if n < 56 {
			return 0, nil, nil, ErrCanonical
		}
	}
	if len(rest) < n {
		return 0, nil, nil, ErrTruncated
	}
	return kind, rest[:n], rest[n:], nil
}

func decodeLength(data []byte, lenBytes int) (int, []byte, error) {
	if len(data) < lenBytes {
		return 0, nil, ErrTruncated
	}
	if lenBytes == 0 || lenBytes > 8 {
		return 0, nil, ErrCanonical
	}
	if data[0] == 0 {
		return 0, nil, ErrCanonical // no leading zeros in length
	}
	var n uint64
	for i := 0; i < lenBytes; i++ {
		n = n<<8 | uint64(data[i])
	}
	if n > 1<<31 {
		return 0, nil, fmt.Errorf("rlp: length %d too large", n)
	}
	return int(n), data[lenBytes:], nil
}

// Uint64 interprets a decoded byte-string item as a big-endian unsigned
// integer, enforcing canonical form (no leading zeros, fits in 64 bits).
func (it *Item) Uint64() (uint64, error) {
	if it.Kind != KindBytes {
		return 0, errors.New("rlp: expected bytes, found list")
	}
	if len(it.Bytes) > 8 {
		return 0, errors.New("rlp: integer overflows uint64")
	}
	if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
		return 0, ErrCanonical
	}
	var v uint64
	for _, b := range it.Bytes {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// BigInt interprets a decoded byte-string item as a big-endian unsigned
// big integer.
func (it *Item) BigInt() (*big.Int, error) {
	if it.Kind != KindBytes {
		return nil, errors.New("rlp: expected bytes, found list")
	}
	if len(it.Bytes) > 0 && it.Bytes[0] == 0 {
		return nil, ErrCanonical
	}
	return new(big.Int).SetBytes(it.Bytes), nil
}
