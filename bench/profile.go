package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto) just
// far enough to attribute each sample to a package: sample stacks, the
// location -> function mapping and the string table. It stands in for
// `go tool pprof -top -show='^logmob/'` so a traced run needs no second
// process and no scraping of a tool's text output.

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	val  uint64 // varint value (wire 0)
	data []byte // length-delimited payload (wire 2)
}

var errProto = errors.New("profile: malformed protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField calls fn for every field of message b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			n, r, err := readVarint(rest)
			if err != nil || n > uint64(len(r)) {
				return errProto
			}
			f.data, rest = r[:n], r[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints decodes a repeated integer field, packed or not.
func repeatedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// cpuSample is one profile sample: the functions on its stack, innermost
// first (inlined frames expanded), and its weight.
type cpuSample struct {
	stack []string
	count int64
}

// parseCPUProfile decodes a gzipped pprof profile into its samples,
// weighting each by the profile's first value (the sample count).
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := eachField(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(g, s.locs)
				case 2:
					vals, err = repeatedVarints(g, vals)
				}
				return err
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return eachField(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// bucketOf maps a function symbol to its share bucket, or "" when the
// function belongs to no logmob package. Packages the issue's nine buckets
// do not name fold into the layer they serve: registry, policy, ctxsvc,
// adapt, update and cluster into core; sim, metrics, app, baseline and the
// benchmark's own driver into scenario.
func bucketOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "scenario"
	}
	rest, ok := strings.CutPrefix(fn, "logmob/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "netsim", "discovery", "transport", "core", "agent", "vm", "scenario":
		return pkg
	case "wire", "lmu", "security":
		return "codec"
	case "registry", "policy", "ctxsvc", "adapt", "update", "cluster":
		return "core"
	default:
		return "scenario"
	}
}

// profileShares charges every sample to the innermost logmob frame on its
// stack, so runtime work (allocation, GC assists) called from a layer counts
// against that layer; samples with no logmob frame — background GC, the
// scheduler — are go_runtime. Socket reads and writes (anything under
// internal/poll) are transport's, whichever package's framing function
// happened to be handed the connection. It returns each bucket's share and
// the sample total the shares are a fraction of.
func profileShares(samples []cpuSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		bucket, socket := "go_runtime", false
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "internal/poll.") {
				socket = true
			}
			if b := bucketOf(fn); b != "" {
				bucket = b
				if socket {
					bucket = "transport"
				}
				break
			}
		}
		counts[bucket] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total
}
