package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a link-sharing tree spec:
//
//	node     := name '=' share ['^' ceil] ['!' fec] body
//	body     := ':' session [':' policy]             (leaf)
//	          | [':' policy] '(' node {',' node} ')' (interior)
//
// e.g. "root=1(agg=3(a=2:0,b=1:1),c=1:2)". Shares are relative to siblings.
// The optional '^ceil' clause caps the node at an absolute rate in bits/sec
// (e.g. "a=2^5e6:0" guarantees a's share, lends it whatever its siblings
// leave idle, but never lets it exceed 5 Mbit/s). The optional '!fec' clause
// protects a leaf's egress with the named erasure-code geometry
// (internal/fec spec syntax, e.g. "a=2!rs-8-2:0" codes 2 Reed-Solomon
// repair datagrams per 8 sources); leaves only — the dataplane grafts a
// sibling repair class and validates the geometry. The optional policy clause
// names the scheduling discipline of that node's server:
// "root=1:WF2Q+(video=3:SP(hd=2:0,sd=1:1),bulk=1:2)" runs WF²Q+ at
// the root and strict priority inside the video class. A clause after a
// leaf's session id ("hd=2:0:EDF") is accepted and recorded, though only
// interior nodes carry servers in H-PFQ. Policy names are not validated
// here — the hierarchy builder resolves them and reports unknown ones.
//
// The parsed tree is structurally validated (Validate); guaranteed rates
// are assigned later when a link rate is known.
func Parse(spec string) (*Node, error) {
	p := &parser{s: spec}
	n, err := p.node()
	if err != nil {
		return nil, fmt.Errorf("topo: spec %q: %v", spec, err)
	}
	if p.i != len(p.s) {
		return nil, fmt.Errorf("topo: spec %q: trailing input at offset %d", spec, p.i)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

type parser struct {
	s string
	i int
}

func (p *parser) node() (*Node, error) {
	name := p.until("=")
	if name == "" {
		return nil, fmt.Errorf("missing node name at offset %d", p.i)
	}
	if !p.eat('=') {
		return nil, fmt.Errorf("node %q: missing '='", name)
	}
	shareStr := p.until("^!:(,)")
	share, err := strconv.ParseFloat(shareStr, 64)
	if err != nil || share <= 0 {
		return nil, fmt.Errorf("node %q: bad share %q", name, shareStr)
	}
	var ceil float64
	if p.eat('^') {
		ceilStr := p.until("!:(,)")
		ceil, err = strconv.ParseFloat(ceilStr, 64)
		if err != nil || ceil <= 0 {
			return nil, fmt.Errorf("node %q: bad ceil %q", name, ceilStr)
		}
	}
	var fecSpec string
	if p.eat('!') {
		if fecSpec = p.until(":(,)"); fecSpec == "" {
			return nil, fmt.Errorf("node %q: empty fec spec", name)
		}
	}
	switch {
	case p.eat(':'):
		tok := p.until(":(,)")
		if p.peek('(') {
			// name=share:policy(children...): an interior node's policy.
			if tok == "" {
				return nil, fmt.Errorf("node %q: empty policy", name)
			}
			n, err := p.children(name, share)
			if err != nil {
				return nil, err
			}
			return n.WithPolicy(tok).WithCeil(ceil).WithFEC(fecSpec), nil
		}
		session, err := strconv.Atoi(tok)
		if err != nil || session < 0 {
			return nil, fmt.Errorf("leaf %q: bad session %q", name, tok)
		}
		leaf := Leaf(name, share, session).WithCeil(ceil).WithFEC(fecSpec)
		if p.eat(':') {
			policy := p.until(",)")
			if policy == "" {
				return nil, fmt.Errorf("leaf %q: empty policy", name)
			}
			leaf.Policy = policy
		}
		return leaf, nil
	case p.peek('('):
		n, err := p.children(name, share)
		if err != nil {
			return nil, err
		}
		return n.WithCeil(ceil).WithFEC(fecSpec), nil
	}
	return nil, fmt.Errorf("node %q: expected ':' or '(' at offset %d", name, p.i)
}

func (p *parser) children(name string, share float64) (*Node, error) {
	p.eat('(')
	var kids []*Node
	for {
		child, err := p.node()
		if err != nil {
			return nil, err
		}
		kids = append(kids, child)
		if p.eat(',') {
			continue
		}
		if p.eat(')') {
			return Interior(name, share, kids...), nil
		}
		return nil, fmt.Errorf("node %q: expected ',' or ')' at offset %d", name, p.i)
	}
}

// until consumes and returns characters up to (not including) the first
// byte in stop, or the rest of the input.
func (p *parser) until(stop string) string {
	start := p.i
	for p.i < len(p.s) && !strings.ContainsRune(stop, rune(p.s[p.i])) {
		p.i++
	}
	return p.s[start:p.i]
}

func (p *parser) eat(c byte) bool {
	if p.peek(c) {
		p.i++
		return true
	}
	return false
}

func (p *parser) peek(c byte) bool {
	return p.i < len(p.s) && p.s[p.i] == c
}
