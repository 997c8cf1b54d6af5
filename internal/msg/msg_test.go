package msg

import (
	"strings"
	"testing"
	"unsafe"
)

// TestMessageSize: a message is three words and three bytes, padded to
// 32 bytes. Every delivery copies one, and every pooled delivery record
// holds one.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > 32 {
		t.Errorf("msg.Message is %d bytes, want ≤ 32", got)
	}
}

func TestKindStringsUnique(t *testing.T) {
	seen := make(map[string]Kind)
	for k := KindInvalid; k < numKinds; k++ {
		s := k.String()
		if s == "" {
			t.Errorf("kind %d has empty name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}

func TestKindValid(t *testing.T) {
	if KindInvalid.Valid() {
		t.Error("KindInvalid reported valid")
	}
	if !KindRequest.Valid() || !KindUncachedWrite.Valid() {
		t.Error("real kind reported invalid")
	}
	if Kind(200).Valid() {
		t.Error("out-of-range kind reported valid")
	}
}

func TestIsData(t *testing.T) {
	data := map[Kind]bool{KindPut: true, KindGet: true, KindBusFlush: true}
	for k := KindInvalid; k < numKinds; k++ {
		if got, want := k.IsData(), data[k]; got != want {
			t.Errorf("%v.IsData() = %v, want %v", k, got, want)
		}
	}
}

func TestRWString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("RW strings wrong: %q %q", Read, Write)
	}
}

func TestMessageStringNotation(t *testing.T) {
	for _, tc := range []struct {
		m    Message
		want string
	}{
		{Message{Kind: KindRequest, Block: 5, Cache: 2, RW: Read}, "REQUEST(2,blk#5,read)"},
		{Message{Kind: KindMRequest, Block: 5, Cache: 1}, "MREQUEST(1,blk#5)"},
		{Message{Kind: KindEject, Block: 9, Cache: 0, RW: Write}, "EJECT(0,blk#9,write)"},
		{Message{Kind: KindBroadInv, Block: 7, Cache: 3}, "BROADINV(blk#7,3)"},
		{Message{Kind: KindBroadQuery, Block: 7, RW: Write}, "BROADQUERY(blk#7,write)"},
		{Message{Kind: KindMGranted, Cache: 4, Ok: true}, "MGRANTED(4,true)"},
		{Message{Kind: KindGet, Cache: 4, Block: 1, Data: 10}, "get(4,blk#1,v10)"},
		{Message{Kind: KindPurge, Block: 2, Cache: 6, RW: Read}, "PURGE(blk#2,6,read)"},
		{Message{Kind: KindInv, Block: 2, Cache: 6}, "INV(blk#2,6)"},
	} {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestMessageStringFallback(t *testing.T) {
	s := Message{Kind: KindBusRead, Block: 1, Cache: 2}.String()
	if !strings.Contains(s, "BUSREAD") {
		t.Errorf("fallback String() = %q lacks kind name", s)
	}
}
