package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On the 2-core box the load generator and the system under test get one
// core each. Left to the kernel, the four busy threads (two senders, two
// connection handlers) land differently from run to run — a report and
// its handler on one core, or across two — and that placement alone moved
// report_reply_p50_us between 60 and 72 µs and reports_per_s by ±10 % at
// one seed. Pinned, every round trip crosses cores the same way.

// cpuMask is the kernel's cpu_set_t for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// placement is which CPU the driver and the child run on; pinned is false
// when the process may use fewer than two CPUs and nothing is pinned.
type placement struct {
	pinned        bool
	driver, child int
}

// choosePlacement gives the driver the first CPU this process may run on
// and the child the last.
func choosePlacement() placement {
	all, err := getAffinity(0)
	if err != nil {
		return placement{}
	}
	first, last := -1, -1
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all.has(cpu) {
			if first < 0 {
				first = cpu
			}
			last = cpu
		}
	}
	if first == last {
		return placement{}
	}
	return placement{pinned: true, driver: first, child: last}
}

func (p placement) String() string {
	if !p.pinned {
		return "not pinned (fewer than 2 CPUs available)"
	}
	return fmt.Sprintf("driver pinned to CPU %d, child to CPU %d", p.driver, p.child)
}

// pinDriver moves every thread of this process to the driver's CPU
// (threads the runtime starts later inherit it from their creators) and,
// there being one CPU to run on, tells the runtime so: two senders
// sharing one P switch by goroutine hand-off, which measured ~7 % faster
// than two threads time-sliced on the core by the kernel.
func (p placement) pinDriver() error {
	if !p.pinned {
		return nil
	}
	runtime.GOMAXPROCS(1)
	var m cpuMask
	m.set(p.driver)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// startPinned starts cmd on the child's CPU: a forked process inherits
// the affinity of the thread that forks it, so this thread borrows the
// child's mask for the duration of the fork.
func (p placement) startPinned(cmd *exec.Cmd) error {
	if !p.pinned {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := getAffinity(0)
	if err != nil {
		return err
	}
	var m cpuMask
	m.set(p.child)
	if err := setAffinity(0, m); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, mine); err != nil {
		return err
	}
	return startErr
}
