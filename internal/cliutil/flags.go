package cliutil

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// RunFlags captures the cmd/ariadne run flags whose combinations can
// contradict each other. Validation lives here, not in main, so the rules
// are unit-testable without spawning the binary.
type RunFlags struct {
	Transport       string // "", "inproc", or "tcp"
	Workers         int    // worker processes to spawn (tcp only)
	WorkerAddrs     string // comma-separated addresses of already-running workers (tcp only)
	Heartbeat       time.Duration
	HeartbeatMisses int
	Resume          bool
	Checkpoint      string
}

// ValidateRunFlags rejects contradictory flag combinations with an error
// naming both flags, instead of letting the run fail later with a message
// about internals the user never asked for.
func ValidateRunFlags(f RunFlags) error {
	switch f.Transport {
	case "", "inproc", "tcp":
	default:
		return fmt.Errorf("-transport %q: want inproc or tcp", f.Transport)
	}
	tcp := f.Transport == "tcp"
	if f.Resume && f.Checkpoint == "" {
		return errors.New("-resume needs -checkpoint to locate checkpoints")
	}
	if !tcp && f.Workers > 0 {
		return errors.New("-workers only applies with -transport tcp")
	}
	if !tcp && f.WorkerAddrs != "" {
		return errors.New("-worker-addrs only applies with -transport tcp")
	}
	if f.Workers > 0 && f.WorkerAddrs != "" {
		return errors.New("-workers spawns workers and -worker-addrs connects to running ones; pass one or the other")
	}
	if f.Workers < 0 {
		return fmt.Errorf("-workers %d: want a positive count", f.Workers)
	}
	if f.WorkerAddrs != "" {
		// A duplicated address would make two pool slots share one worker:
		// its death would be counted twice, failover would "reroute" onto
		// the same dead process, and the capacity the user thinks they have
		// is a lie. Reject it up front.
		seen := map[string]bool{}
		for _, addr := range strings.Split(f.WorkerAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return errors.New("-worker-addrs: empty address in list")
			}
			if seen[addr] {
				return fmt.Errorf("-worker-addrs: duplicate address %s", addr)
			}
			seen[addr] = true
		}
	}
	if f.Heartbeat < 0 {
		return fmt.Errorf("-net-heartbeat %v: want a non-negative interval (0 disables probing)", f.Heartbeat)
	}
	if f.HeartbeatMisses < 0 {
		return fmt.Errorf("-net-heartbeat-misses %d: want a positive miss budget", f.HeartbeatMisses)
	}
	if f.Heartbeat == 0 && f.HeartbeatMisses > 0 && tcp {
		return errors.New("-net-heartbeat-misses needs -net-heartbeat to enable probing")
	}
	return nil
}
