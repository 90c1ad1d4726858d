package vmprog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// jsonInstr mirrors Instr for decoding. Index needs a pointer: a scalar
// access is Index -1, which is also what an *absent* index field must mean,
// while plain omitempty would silently turn "absent" into register 0.
type jsonInstr struct {
	Op     OpCode `json:"op"`
	A      int    `json:"a"`
	B      int    `json:"b"`
	C      int    `json:"c"`
	Imm    uint64 `json:"imm"`
	Base   int    `json:"base"`
	Index  *int   `json:"index"`
	Target int    `json:"target"`
}

// MarshalJSON emits the instruction with an explicit index field for
// indexed accesses only.
func (in Instr) MarshalJSON() ([]byte, error) {
	j := jsonInstr{Op: in.Op, A: in.A, B: in.B, C: in.C, Imm: in.Imm, Base: in.Base, Target: in.Target}
	if in.Index >= 0 {
		j.Index = &in.Index
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes an instruction, defaulting a missing index field to
// -1 (scalar access).
func (in *Instr) UnmarshalJSON(data []byte) error {
	var j jsonInstr
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*in = Instr{Op: j.Op, A: j.A, B: j.B, C: j.C, Imm: j.Imm, Base: j.Base, Index: -1, Target: j.Target}
	if j.Index != nil {
		in.Index = *j.Index
	}
	return nil
}

// Load decodes a JSON-encoded program and validates it: jump targets,
// register indices, variable bases, and variable-name uniqueness are all
// checked up front, so a malformed file is an error here rather than a
// panic (or a silently wrong array-extent analysis) mid-simulation.
func Load(r io.Reader) (*Program, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Program
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("vmprog: decode program: %w", err)
	}
	return validateLoaded(&p)
}

// validateLoaded applies the load-time checks shared by Load and LoadSet.
func validateLoaded(p *Program) (*Program, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("vmprog: program has no name")
	}
	if p.Class < ClassUnknown || p.Class > ClassAdaptive {
		return nil, fmt.Errorf("vmprog %s: invalid adaptivity class %d", p.Name, int(p.Class))
	}
	seen := make(map[string]bool, len(p.Vars))
	for _, v := range p.Vars {
		if seen[v] {
			return nil, fmt.Errorf("vmprog %s: duplicate variable name %q", p.Name, v)
		}
		seen[v] = true
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadSet decodes a JSON array of programs, applying the same per-program
// validation as Load and additionally rejecting duplicate program names:
// a set is addressed by name (lint caches, job artifacts, registries), so
// two entries sharing one silently shadowing the other is a load error.
func LoadSet(r io.Reader) ([]*Program, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw []Program
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("vmprog: decode program set: %w", err)
	}
	seen := make(map[string]bool, len(raw))
	out := make([]*Program, 0, len(raw))
	for i := range raw {
		p, err := validateLoaded(&raw[i])
		if err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("vmprog: duplicate program name %q in set", p.Name)
		}
		seen[p.Name] = true
		out = append(out, p)
	}
	return out, nil
}

// LoadFile loads and validates a JSON program file. The file may hold a
// single program object or an array of programs (LoadSet); a single
// program comes back as a one-element slice.
func LoadFile(path string) ([]*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		return LoadSet(bytes.NewReader(data))
	}
	p, err := Load(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return []*Program{p}, nil
}

// Hash returns a hex SHA-256 fingerprint of the program's canonical JSON
// form. It keys lint caches: two programs hash equal exactly when their
// observable structure (name, variable table, code, declared class, owned
// arrays) is identical, so a cached analysis served by hash can never be
// stale.
func (p *Program) Hash() (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("vmprog %s: hash: %w", p.Name, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Save encodes the program as indented JSON.
func (p *Program) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
