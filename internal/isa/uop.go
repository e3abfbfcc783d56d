package isa

// UOpKind labels the role a µop plays within its parent architectural
// instruction. Most instructions decode to a single Main µop; loads and
// stores with pre/post-index addressing additionally emit a BaseUpdate µop
// that performs the base register increment on the integer ALU, which is
// the dominant source of the µop expansion ratio the paper reports in
// Fig. 2.
type UOpKind uint8

const (
	// UOpMain is the µop that carries the instruction's primary semantics.
	UOpMain UOpKind = iota
	// UOpBaseUpdate is the address-increment µop of a pre/post-index
	// load or store: Rn = Rn + Imm on the integer ALU.
	UOpBaseUpdate
)

// CrackCount returns the number of µops the instruction decodes into.
func CrackCount(in *Inst) int {
	if IsMem(in.Op) && (in.Mode == AddrPre || in.Mode == AddrPost) {
		return 2
	}
	return 1
}
