package perfdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// evalLine wraps an EvalRecord with the line discriminator so a JSONL
// stream is self-describing.
type evalLine struct {
	Kind string `json:"kind"`
	EvalRecord
}

// WriteSnapshot writes a perf-database snapshot as JSONL: one meta
// header line (schema-stamped) followed by one line per record.
func WriteSnapshot(w *bufio.Writer, meta Meta, recs []EvalRecord) error {
	meta.Schema = Schema
	meta.Kind = "meta"
	if meta.CreatedUnixNS == 0 {
		meta.CreatedUnixNS = time.Now().UnixNano()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := enc.Encode(evalLine{Kind: "eval", EvalRecord: rec}); err != nil {
			return err
		}
	}
	return w.Flush()
}

// flushSeq disambiguates snapshot and flight-dump files created within
// one clock tick (and by concurrent writers in one process).
var flushSeq atomic.Int64

// WriteFile writes a snapshot into dir (created if needed) under a
// unique perfdb-*.jsonl name and returns the path.
func WriteFile(dir string, meta Meta, recs []EvalRecord) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("perfdb: empty snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("perfdb-%d-%d.jsonl", time.Now().UnixMilli(), flushSeq.Add(1))
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := WriteSnapshot(bw, meta, recs); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a JSONL snapshot back: the meta header (zero Meta if the
// first line is a bare record — tolerated for hand-built fixtures) and
// every eval record. Unknown line kinds are skipped, so minor-version
// additions stay readable.
func Load(path string) (Meta, []EvalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, err
	}
	return Parse(data)
}

// Parse decodes a JSONL snapshot from memory (see Load).
func Parse(data []byte) (Meta, []EvalRecord, error) {
	var meta Meta
	var recs []EvalRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Kind   string `json:"kind"`
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return meta, nil, fmt.Errorf("perfdb: line %d: %w", lineNo, err)
		}
		switch probe.Kind {
		case "meta":
			if err := json.Unmarshal(line, &meta); err != nil {
				return meta, nil, fmt.Errorf("perfdb: line %d: %w", lineNo, err)
			}
			if !schemaCompatible(meta.Schema) {
				return meta, nil, fmt.Errorf("perfdb: schema %q incompatible with %q", meta.Schema, Schema)
			}
		case "eval", "":
			var el evalLine
			if err := json.Unmarshal(line, &el); err != nil {
				return meta, nil, fmt.Errorf("perfdb: line %d: %w", lineNo, err)
			}
			recs = append(recs, el.EvalRecord)
		default:
			// Forward compatibility: skip record kinds this reader predates.
		}
	}
	if err := sc.Err(); err != nil {
		return meta, nil, err
	}
	return meta, recs, nil
}

// schemaCompatible reports whether this reader decodes a snapshot's
// schema: the current version, or empty — a headerless hand-built
// fixture, tolerated like a missing meta line.
func schemaCompatible(schema string) bool {
	return schema == "" || schema == Schema
}
