package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// buildDigest is the SHA-256 of every table cell (row-major, Lo then Hi,
// little-endian) followed by the %+v rendering of the build report — a
// fingerprint of everything a construction produces.
func buildDigest(d *Dict) string {
	h := sha256.New()
	tab := d.Table()
	var buf [16]byte
	for i := 0; i < tab.Size(); i++ {
		c := tab.AtIndex(i)
		binary.LittleEndian.PutUint64(buf[:8], c.Lo)
		binary.LittleEndian.PutUint64(buf[8:], c.Hi)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%+v", d.Report())
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the exact output of the §2.2 construction across
// releases: the digests below were recorded before the construction path
// was reworked for speed, so any change to which hash functions are drawn,
// how the RNG streams are consumed, or where a cell lands fails here —
// TestDeterministicBuild only compares two builds of the same version.
func TestBuildGolden(t *testing.T) {
	variants := []struct {
		name string
		p    Params
	}{
		{"default", Params{}},
		{"strided", Params{Strided: true}},
		{"compact", Params{Compact: true}},
		{"workers4", Params{BuildWorkers: 4}},
	}
	golden := map[string]string{
		"n=1/default":      "f0a1568e80e2969ab0afef31348feeb458c280443b5808b2382eeffcda705bad",
		"n=1/strided":      "f0a1568e80e2969ab0afef31348feeb458c280443b5808b2382eeffcda705bad",
		"n=1/compact":      "f0a1568e80e2969ab0afef31348feeb458c280443b5808b2382eeffcda705bad",
		"n=1/workers4":     "29c9e81f98d140b728440cdf5aceac7cbeb32bfb9134d74634e9330b5a7400db",
		"n=1000/default":   "7912442964bf0421fe5ae509d8ac93f519b8b5c3a75c2d307ba15d6a179906a8",
		"n=1000/strided":   "c59f53ad7230e4573b8a2f4288116656c29de6dfe62a4952145bcbe748b68635",
		"n=1000/compact":   "7912442964bf0421fe5ae509d8ac93f519b8b5c3a75c2d307ba15d6a179906a8",
		"n=1000/workers4":  "e42c6bc1cae567235db18261245d023e5c101fb6ef799bc05c17b2477a8a55e4",
		"n=16384/default":  "c78bae276f8bfa43797e3fdb866712bd3f5638fbcf8a85ff059660894b4dcaca",
		"n=16384/strided":  "e19a0074b7e379278adaf8c237f5af1b3f84228e024a1689f5e26087cbde77e1",
		"n=16384/compact":  "c78bae276f8bfa43797e3fdb866712bd3f5638fbcf8a85ff059660894b4dcaca",
		"n=16384/workers4": "f57616841a18ebb72269ec8ed8878ed6c38bd3f887fa069fff0f4248bdd980e0",
	}
	for _, n := range []int{1, 1000, 16384} {
		keys := distinctKeys(rng.New(uint64(n)+17), n)
		for _, v := range variants {
			name := fmt.Sprintf("n=%d/%s", n, v.name)
			d, err := Build(keys, v.p, 2026)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := buildDigest(d); got != golden[name] {
				t.Errorf("%s: digest %s, want %s", name, got, golden[name])
			}
		}
	}
}
