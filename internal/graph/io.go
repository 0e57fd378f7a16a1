package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Edge-list (de)serialization, in the two formats cmd/graphgen writes:
//
//   - text: one "u<TAB>v" (or space-separated) pair per line, '#' comments;
//   - binary: the Graph500 reference layout, two little-endian int64 per
//     edge.

// WriteEdgesText writes edges as "u\tv" lines.
func WriteEdgesText(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.From, e.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgesText parses "u v" / "u\tv" lines; blank lines and lines starting
// with '#' are skipped.
func ReadEdgesText(r io.Reader) ([]Edge, error) {
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		edges = append(edges, Edge{From: Vertex(u), To: Vertex(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

// WriteEdgesBinary writes the Graph500 packed format: two little-endian
// int64 per edge.
func WriteEdgesBinary(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(e.From))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(e.To))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgesBinary reads the packed format until EOF.
func ReadEdgesBinary(r io.Reader) ([]Edge, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var edges []Edge
	var buf [16]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return nil, fmt.Errorf("graph: truncated binary edge list: %w", err)
		}
		edges = append(edges, Edge{
			From: Vertex(binary.LittleEndian.Uint64(buf[0:8])),
			To:   Vertex(binary.LittleEndian.Uint64(buf[8:16])),
		})
	}
}
