// Package wire provides compact binary encodings for routing tables and
// labels: varint-coded, allocation-light, suitable for attaching labels to
// packet headers or persisting tables on memory-constrained devices. It
// turns the CONGEST-RAM "word" accounting of the rest of the repository
// into concrete byte sizes.
//
// Formats are self-delimiting and versionless by design (the schemes are
// rebuilt, not migrated); ints are encoded as unsigned varints with
// graph.NoVertex mapped to 0 and ids shifted by one. Decoders accept only
// shortest-form varints.
package wire

import (
	"encoding/binary"
	"fmt"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// putID appends an id (which may be graph.NoVertex) as a varint.
func putID(b []byte, id int) []byte {
	return binary.AppendUvarint(b, uint64(id+1)) // NoVertex (-1) -> 0
}

func getID(b []byte) (int, []byte, error) {
	v, b, err := getUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: truncated or overlong id")
	}
	return int(v) - 1, b, nil
}

// getUvarint reads one varint in its shortest form, returning the
// remainder. A longer form (a final 0x00 group) is an error, so every
// accepted value has exactly one encoding.
func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, fmt.Errorf("wire: malformed varint")
	}
	return v, b[n:], nil
}

// AppendTreeTable encodes a tree-routing table.
func AppendTreeTable(b []byte, t treeroute.Table) []byte {
	b = putID(b, t.In)
	b = putID(b, t.Out)
	b = putID(b, t.Parent)
	b = putID(b, t.Heavy)
	return b
}

// DecodeTreeTable decodes a tree-routing table, returning the remainder.
func DecodeTreeTable(b []byte) (treeroute.Table, []byte, error) {
	var t treeroute.Table
	var err error
	if t.In, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Out, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Parent, b, err = getID(b); err != nil {
		return t, nil, err
	}
	if t.Heavy, b, err = getID(b); err != nil {
		return t, nil, err
	}
	return t, b, nil
}

// AppendTreeLabel encodes a tree-routing label.
func AppendTreeLabel(b []byte, l treeroute.Label) []byte {
	b = putID(b, l.In)
	b = binary.AppendUvarint(b, uint64(len(l.Light)))
	for _, e := range l.Light {
		b = putID(b, e.Parent)
		b = putID(b, e.Child)
	}
	return b
}

// DecodeTreeLabel decodes a tree-routing label, returning the remainder.
func DecodeTreeLabel(b []byte) (treeroute.Label, []byte, error) {
	var l treeroute.Label
	var err error
	if l.In, b, err = getID(b); err != nil {
		return l, nil, err
	}
	count, b, err := getUvarint(b)
	if err != nil {
		return l, nil, fmt.Errorf("wire: truncated light-edge count")
	}
	if count > uint64(len(b)) { // each edge needs at least 2 bytes
		return l, nil, fmt.Errorf("wire: light-edge count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		var e treeroute.LightEdge
		if e.Parent, b, err = getID(b); err != nil {
			return l, nil, err
		}
		if e.Child, b, err = getID(b); err != nil {
			return l, nil, err
		}
		l.Light = append(l.Light, e)
	}
	return l, b, nil
}

// EncodeLabel encodes a cluster-forest routing label (the destination
// address a packet carries).
func EncodeLabel(l clusterroute.Label) []byte {
	b := putID(nil, l.Vertex)
	b = binary.AppendUvarint(b, uint64(len(l.Entries)))
	for _, e := range l.Entries {
		b = binary.AppendUvarint(b, uint64(e.Level))
		b = putID(b, e.Root)
		if e.InCluster {
			b = append(b, 1)
			b = AppendTreeLabel(b, e.TreeLabel)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeLabel decodes a cluster-forest routing label.
func DecodeLabel(b []byte) (clusterroute.Label, error) {
	var l clusterroute.Label
	var err error
	if l.Vertex, b, err = getID(b); err != nil {
		return l, err
	}
	count, b, err := getUvarint(b)
	if err != nil {
		return l, fmt.Errorf("wire: truncated entry count")
	}
	if count > uint64(len(b))+1 {
		return l, fmt.Errorf("wire: entry count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		var e clusterroute.PivotEntry
		lvl, rest, err := getUvarint(b)
		if err != nil {
			return l, fmt.Errorf("wire: truncated level")
		}
		e.Level, b = int(lvl), rest
		if e.Root, b, err = getID(b); err != nil {
			return l, err
		}
		if len(b) == 0 {
			return l, fmt.Errorf("wire: truncated membership flag")
		}
		flag := b[0]
		b = b[1:]
		if flag == 1 {
			e.InCluster = true
			if e.TreeLabel, b, err = DecodeTreeLabel(b); err != nil {
				return l, err
			}
		}
		l.Entries = append(l.Entries, e)
	}
	if len(b) != 0 {
		return l, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return l, nil
}

// EncodeTable encodes a vertex's cluster-forest routing table (its
// persistent routing state): the entry count, then each entry's center and
// tree-routing table, in the table's ascending center order.
func EncodeTable(t clusterroute.Table) []byte {
	b := binary.AppendUvarint(nil, uint64(len(t)))
	for _, e := range t {
		b = putID(b, e.Center)
		b = AppendTreeTable(b, e.Tree)
	}
	return b
}

// DecodeTable decodes a cluster-forest routing table. It accepts only the
// canonical encoding: centers strictly ascending, so no center repeats.
func DecodeTable(b []byte) (clusterroute.Table, error) {
	count, b, err := getUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("wire: truncated tree count")
	}
	if count > uint64(len(b))+1 {
		return nil, fmt.Errorf("wire: tree count %d exceeds payload", count)
	}
	t := make(clusterroute.Table, 0, count)
	for i := uint64(0); i < count; i++ {
		var e clusterroute.TableEntry
		if e.Center, b, err = getID(b); err != nil {
			return t, err
		}
		if e.Center == graph.NoVertex {
			return t, fmt.Errorf("wire: invalid center")
		}
		if i > 0 && e.Center <= t[i-1].Center {
			return t, fmt.Errorf("wire: center %d after %d: centers must ascend", e.Center, t[i-1].Center)
		}
		if e.Tree, b, err = DecodeTreeTable(b); err != nil {
			return t, err
		}
		t = append(t, e)
	}
	if len(b) != 0 {
		return t, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return t, nil
}
