package main

import (
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
)

// TestLiveTimeout pins which live receive errors the read loop retries:
// only the SO_RCVTIMEO poll timeout, seen through LiveSource.Next's
// wrapping. Everything else must end the capture instead of spinning.
func TestLiveTimeout(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("pcap: recvfrom on %q: %w", "eth0", err) }
	for _, tc := range []struct {
		err       error
		transient bool
	}{
		{wrap(syscall.EAGAIN), true},
		{wrap(syscall.EWOULDBLOCK), true},
		{wrap(syscall.ENETDOWN), false},
		{wrap(syscall.EBADF), false},
		{wrap(io.ErrUnexpectedEOF), false},
		{errors.New("recvfrom failed"), false},
	} {
		if got := liveTimeout(tc.err); got != tc.transient {
			t.Errorf("liveTimeout(%v) = %v, want %v", tc.err, got, tc.transient)
		}
	}
}
