package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: a small decoder for the gzipped protobuf profiles that
// runtime/pprof writes (the profile.proto schema), enough to walk each
// sample's stack. Each sample is charged to the innermost frame whose
// function belongs to the weaver module, mapped to a layer by package;
// samples with no weaver frame are charged to "runtime".

// layerOf maps a weaver package path to the layer its CPU is charged to.
var layerOf = map[string]string{
	"weaver/internal/gatekeeper": "gatekeeper",
	"weaver/internal/shard":      "shard",
	"weaver/internal/nodeprog":   "nodeprog",
	"weaver/internal/wire":       "wire",
	"weaver/internal/transport":  "wire",
	"weaver/internal/binenc":     "wire",
	"weaver/internal/oracle":     "oracle",
	"weaver/internal/chainrep":   "oracle",
	"weaver/internal/kvstore":    "kvstore",
	"weaver/internal/snapshot":   "kvstore",
	"weaver/internal/graph":      "graph",
	"weaver/internal/index":      "index",
	"weaver/internal/plan":       "plan",
}

// cpuLayers lists the layers in report order.
var cpuLayers = []string{"gatekeeper", "shard", "nodeprog", "wire", "oracle", "kvstore", "graph", "index", "plan", "other", "runtime"}

// funcPackage returns the import path of a Go symbol name such as
// "weaver/internal/shard.(*Shard).run.func1" or "weaver.(*Client).RunTx".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerForFunc returns the layer a frame belongs to, or "" when the frame is
// outside the weaver module. The benchmark's own package is not a layer: it
// is "main" in the built binary and its import path under go test.
func layerForFunc(name string) string {
	pkg := funcPackage(name)
	if pkg == "weaver/perfbench" || (pkg != "weaver" && !strings.HasPrefix(pkg, "weaver/")) {
		return ""
	}
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of the sampled CPU time, plus the total number of samples.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	charged := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, locID := range s.locs {
			for _, fnID := range p.locLines[locID] { // innermost inlined frame first
				if l := layerForFunc(p.funcName[fnID]); l != "" {
					layer = l
					break stack
				}
			}
		}
		charged[layer] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l], _ = ratio(float64(charged[l]), float64(total))
	}
	return shares, total, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	weight int64    // the first sample value: a sample count for CPU profiles
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string   // function id -> name
}

// parseProfile decodes the fields of profile.proto that attribution needs:
// Profile.sample (2), Profile.location (4), Profile.function (5) and
// Profile.string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]int64{}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.weight = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var nameIdx int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nameIdx = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = nameIdx
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for id, idx := range funcNameIdx {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may arrive either as a
// single varint (v) or packed into a length-delimited payload (b != nil).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v; length-delimited fields pass their payload
// in b (non-nil, possibly empty); fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}
