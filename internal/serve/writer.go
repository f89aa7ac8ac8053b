package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// replyBuf is one reply's scratch space: an encoder with no indent
// that writes the compact value into compact, and body, the indented
// bytes that go on the wire.
type replyBuf struct {
	compact bytes.Buffer
	enc     *json.Encoder
	body    []byte
}

// maxPooledReply caps the buffers the pool keeps, so that one huge
// reply does not pin its memory for the life of the process.
const maxPooledReply = 64 << 10

var replyBufs = sync.Pool{New: func() any {
	b := new(replyBuf)
	b.enc = json.NewEncoder(&b.compact)
	return b
}}

// writeJSON is the one writer of energyd's JSON replies. It encodes the
// whole body before the header goes out, so a value that cannot be
// encoded (a non-finite float) becomes a 500 naming the encode error,
// and it sends the body with one Write. It returns the status it sent.
// The bytes are those of an encoding/json Encoder with
// SetIndent("", "  ").
func writeJSON(w http.ResponseWriter, rep reply) int {
	b := replyBufs.Get().(*replyBuf)
	defer putReplyBuf(b)
	b.compact.Reset()
	if err := b.enc.Encode(rep.body); err != nil {
		rep = fail(http.StatusInternalServerError, "encoding reply: "+err.Error(), rep.device)
		b.compact.Reset()
		// An ErrorJSON holds two strings: it always encodes.
		_ = b.enc.Encode(rep.body)
	}
	b.body = appendIndentJSON(b.body[:0], b.compact.Bytes())
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if rep.device != "" {
		h.Set("X-Energyd-Device", rep.device)
	}
	w.WriteHeader(rep.code)
	// A failed write means the client has gone; the status is sent.
	_, _ = w.Write(b.body)
	return rep.code
}

func putReplyBuf(b *replyBuf) {
	if b.compact.Cap() > maxPooledReply || cap(b.body) > maxPooledReply {
		return
	}
	replyBufs.Put(b)
}

// appendIndentJSON appends to dst what json.Indent(dst, src, "", "  ")
// would. src must be encoding/json's compact output (no whitespace
// outside strings but a trailing newline), which needs no validation:
// only strings can hold punctuation that is not structure, so the
// indenter tracks only whether it is inside one.
func appendIndentJSON(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			// Copy the whole string in one step; a backslash escapes
			// the byte after it, so an escaped quote does not end it.
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if next := src[i+1]; next == '}' || next == ']' {
				// Empty objects and arrays stay {} and [].
				dst = append(dst, next)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		case '}', ']':
			depth--
			dst = appendNewline(dst, depth)
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
