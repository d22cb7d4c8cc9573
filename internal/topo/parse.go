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
// are assigned later when a link rate is known. Its nodes share one slab
// and every interior node's Children one exact-size slice of another, so a
// parse allocates a fixed handful of times whatever the tree's size; an
// append to a parsed node's Children copies rather than overwriting a
// neighbour's.
func Parse(spec string) (*Node, error) {
	// Every node consumes one '=', so their count bounds the node count (and
	// the child count, one fewer): the slabs are sized once and never grow.
	size := strings.Count(spec, "=")
	p := &parser{
		s:     spec,
		nodes: make([]Node, size),
		kids:  make([]*Node, size),
		stack: make([]*Node, 0, min(size, 64)),
	}
	n, err := p.node()
	if err != nil {
		return nil, fmt.Errorf("topo: spec %q: %v", spec, err)
	}
	if p.i != len(p.s) {
		return nil, fmt.Errorf("topo: spec %q: trailing input at offset %d", spec, p.i)
	}
	if err := n.validate(make([]*Node, 0, p.leaves)); err != nil {
		return nil, err
	}
	return n, nil
}

// Byte classes of the grammar's delimiters; until stops at any byte whose
// class is in its mask.
const (
	cEq    = 1 << iota // '='
	cCeil              // '^'
	cFEC               // '!'
	cColon             // ':'
	cOpen              // '('
	cClose             // ',' and ')'
)

var byteClass = [256]uint8{'=': cEq, '^': cCeil, '!': cFEC, ':': cColon, '(': cOpen, ',': cClose, ')': cClose}

type parser struct {
	s      string
	i      int
	nodes  []Node  // node slab, taken in preorder
	kids   []*Node // children slab, one exact-size run per interior node
	stack  []*Node // children of the interior nodes being parsed
	leaves int
}

// take returns the next node of the slab.
func (p *parser) take() *Node {
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	return n
}

func (p *parser) node() (*Node, error) {
	name := p.until(cEq)
	if name == "" {
		return nil, fmt.Errorf("missing node name at offset %d", p.i)
	}
	if !p.eat('=') {
		return nil, fmt.Errorf("node %q: missing '='", name)
	}
	n := p.take()
	n.Name, n.Session = name, -1
	shareStr := p.until(cCeil | cFEC | cColon | cOpen | cClose)
	share, err := strconv.ParseFloat(shareStr, 64)
	if err != nil || share <= 0 {
		return nil, fmt.Errorf("node %q: bad share %q", name, shareStr)
	}
	n.Share = share
	if p.eat('^') {
		ceilStr := p.until(cFEC | cColon | cOpen | cClose)
		n.Ceil, err = strconv.ParseFloat(ceilStr, 64)
		if err != nil || n.Ceil <= 0 {
			return nil, fmt.Errorf("node %q: bad ceil %q", name, ceilStr)
		}
	}
	if p.eat('!') {
		if n.FEC = p.until(cColon | cOpen | cClose); n.FEC == "" {
			return nil, fmt.Errorf("node %q: empty fec spec", name)
		}
	}
	switch {
	case p.eat(':'):
		tok := p.until(cColon | cOpen | cClose)
		if p.peek('(') {
			// name=share:policy(children...): an interior node's policy.
			if tok == "" {
				return nil, fmt.Errorf("node %q: empty policy", name)
			}
			n.Policy = tok
			return n, p.children(n)
		}
		session, err := strconv.Atoi(tok)
		if err != nil || session < 0 {
			return nil, fmt.Errorf("leaf %q: bad session %q", name, tok)
		}
		n.Session = session
		p.leaves++
		if p.eat(':') {
			if n.Policy = p.until(cClose); n.Policy == "" {
				return nil, fmt.Errorf("leaf %q: empty policy", name)
			}
		}
		return n, nil
	case p.peek('('):
		return n, p.children(n)
	}
	return nil, fmt.Errorf("node %q: expected ':' or '(' at offset %d", name, p.i)
}

// children parses the parenthesized child list of the interior node n and
// gives n its exact-size run of the children slab.
func (p *parser) children(n *Node) error {
	p.eat('(')
	base := len(p.stack)
	for {
		child, err := p.node()
		if err != nil {
			return err
		}
		p.stack = append(p.stack, child)
		if p.eat(',') {
			continue
		}
		if p.eat(')') {
			k := copy(p.kids, p.stack[base:])
			n.Children = p.kids[:k:k]
			p.kids = p.kids[k:]
			p.stack = p.stack[:base]
			return nil
		}
		return fmt.Errorf("node %q: expected ',' or ')' at offset %d", n.Name, p.i)
	}
}

// until consumes and returns characters up to (not including) the first
// byte whose class is in stop, or the rest of the input.
func (p *parser) until(stop uint8) string {
	start := p.i
	for p.i < len(p.s) && byteClass[p.s[p.i]]&stop == 0 {
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
