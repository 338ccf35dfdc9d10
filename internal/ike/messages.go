package ike

import (
	"encoding/binary"
	"fmt"
)

// Message type tags.
const (
	msgInitReq  = 1
	msgInitResp = 2
	msgAuthReq  = 3
	msgAuthResp = 4
)

const nonceLen = 32

// initMsg is the body shared by INIT request and response.
type initMsg struct {
	spi   uint64
	nonce []byte // nonceLen
	ke    []byte // X25519 public value; length-framed, so a wrong one is refused
}

func marshalInit(tag byte, m initMsg) []byte {
	out := make([]byte, 0, 1+8+nonceLen+4+len(m.ke))
	out = append(out, tag)
	out = binary.BigEndian.AppendUint64(out, m.spi)
	out = append(out, m.nonce...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.ke)))
	out = append(out, m.ke...)
	return out
}

func unmarshalInit(tag byte, b []byte) (initMsg, error) {
	var m initMsg
	if len(b) < 1+8+nonceLen+4 {
		return m, fmt.Errorf("%w: init message %d bytes", ErrBadMessage, len(b))
	}
	if b[0] != tag {
		return m, fmt.Errorf("%w: tag %d, want %d", ErrBadMessage, b[0], tag)
	}
	m.spi = binary.BigEndian.Uint64(b[1:9])
	m.nonce = append([]byte(nil), b[9:9+nonceLen]...)
	keLen := binary.BigEndian.Uint32(b[9+nonceLen : 13+nonceLen])
	rest := b[13+nonceLen:]
	if uint32(len(rest)) != keLen {
		return m, fmt.Errorf("%w: KE length %d, have %d", ErrBadMessage, keLen, len(rest))
	}
	m.ke = append([]byte(nil), rest...)
	return m, nil
}

// authMsg is the body shared by AUTH request and response.
type authMsg struct {
	spiI     uint64
	spiR     uint64
	id       []byte
	auth     [32]byte
	childSPI uint32
}

func marshalAuth(tag byte, m authMsg) []byte {
	out := make([]byte, 0, 1+16+2+len(m.id)+32+4)
	out = append(out, tag)
	out = binary.BigEndian.AppendUint64(out, m.spiI)
	out = binary.BigEndian.AppendUint64(out, m.spiR)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.id)))
	out = append(out, m.id...)
	out = append(out, m.auth[:]...)
	out = binary.BigEndian.AppendUint32(out, m.childSPI)
	return out
}

func unmarshalAuth(tag byte, b []byte) (authMsg, error) {
	var m authMsg
	if len(b) < 1+16+2 {
		return m, fmt.Errorf("%w: auth message %d bytes", ErrBadMessage, len(b))
	}
	if b[0] != tag {
		return m, fmt.Errorf("%w: tag %d, want %d", ErrBadMessage, b[0], tag)
	}
	m.spiI = binary.BigEndian.Uint64(b[1:9])
	m.spiR = binary.BigEndian.Uint64(b[9:17])
	idLen := int(binary.BigEndian.Uint16(b[17:19]))
	rest := b[19:]
	if len(rest) != idLen+32+4 {
		return m, fmt.Errorf("%w: auth trailer %d bytes, want %d", ErrBadMessage, len(rest), idLen+36)
	}
	m.id = append([]byte(nil), rest[:idLen]...)
	copy(m.auth[:], rest[idLen:idLen+32])
	m.childSPI = binary.BigEndian.Uint32(rest[idLen+32:])
	return m, nil
}
