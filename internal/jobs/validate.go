package jobs

import (
	"fmt"
	"net"

	"repro/internal/recordio"
)

// ValidateServer checks the charserved flag combinations that otherwise
// surface as late, opaque failures after the server has half-booted: an
// unbindable -listen address, a missing or unwritable -queue-dir or
// -run-dir, and a nonpositive -workers budget. Each failure is a single
// pinned line (cli.Validate style); the binary exits 2 on any of them
// before touching the queue.
func ValidateServer(listen, queueDir, runDir string, workers int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	if queueDir == "" {
		return fmt.Errorf("-queue-dir is required (the job journal needs somewhere to live)")
	}
	if err := recordio.ProbeDir(queueDir); err != nil {
		return fmt.Errorf("cannot write the job queue to -queue-dir %q: %w", queueDir, err)
	}
	if runDir == "" {
		return fmt.Errorf("-run-dir is required (finished jobs finalize into the run ledger)")
	}
	if err := recordio.ProbeDir(runDir); err != nil {
		return fmt.Errorf("cannot record runs to -run-dir %q: %w", runDir, err)
	}
	if listen != "" {
		// Bind-and-release: the only reliable probe for a usable address. The
		// real server re-binds moments later; losing the port in between is
		// possible but loses nothing — the boot path reports that too.
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return fmt.Errorf("cannot bind -listen address %q: %w", listen, err)
		}
		ln.Close()
	}
	return nil
}
