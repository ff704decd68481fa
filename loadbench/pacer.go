package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps the generator's goroutine until a request is due. It
// arms a Linux timerfd and blocks reading it through the runtime's
// poller (the benchmark runs on Linux only; it also reads /proc): the
// wake-up has the kernel timer's precision (tens of µs) instead of
// time.Sleep's, which an idle Go process rounds up to a
// millisecond, and no core is held by a spinning sender.
type pacer struct {
	f  *os.File
	fd uintptr
	b  [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// poller. The raw fd is kept because File.Fd would switch it back to
	// blocking mode.
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.b[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
