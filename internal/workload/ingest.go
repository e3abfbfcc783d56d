package workload

import (
	"fmt"

	"repro/internal/isa/verify"
	"repro/internal/prog"
)

// FromEncoded admits an encoded TVPB binary into the simulator: it
// decodes the container and gates the program behind the static
// verifier. The verify.Result is returned alongside the error so
// callers (tvpsim -load) can print the structured diagnostics of a
// rejection; on success it carries the lint-grade findings (Warn/Info)
// and the proven memory windows.
//
// A program is admitted only with zero Error-severity findings — the
// soundness contract is that an admitted binary cannot address memory
// outside the verifier-reported windows, cannot overwrite text, and
// always reaches HALT.
func FromEncoded(data []byte) (*prog.Program, *verify.Result, error) {
	p, res := verify.Binary(data)
	if errs := res.Errors(); len(errs) > 0 {
		return p, res, fmt.Errorf("workload: binary rejected by verifier (%d error finding(s))", len(errs))
	}
	return p, res, nil
}
