package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// cpuMask is the cpu_set_t of sched_setaffinity(2), 1024 CPUs.
type cpuMask [16]uint64

// schedIdle is SCHED_IDLE of sched(7): a thread under it runs only when
// nothing else wants the CPU, and any other thread that wakes preempts it
// at once.
const schedIdle = 5

// keepAwake keeps every CPU from halting while the repeats run: one thread
// per CPU, pinned to it, spins under SCHED_IDLE in this process, so the
// children's own CPU time does not include it.
//
// On a virtual machine an idle CPU halts, and waking it (every goroutine
// hand-off between two cores does) goes through the hypervisor, which
// answers in a few microseconds while it still polls the halted vCPU and
// in tens once it has descheduled it. Which of the two it does flips from
// minute to minute and from process to process, and was the largest term
// of the run-to-run spread of every workload (README, finding 8). It is
// the user-space form of booting with idle=poll.
//
// A thread that cannot get the idle policy does not spin: at normal
// priority it would take a CPU from the program under test.
func keepAwake() (stop func(), err error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return func() {}, fmt.Errorf("CPUs not kept awake: sched_getaffinity: %w", e)
	}
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	n := len(cpus)
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(old + n) // the spinners hold one P each
	var (
		done    atomic.Bool
		wg      sync.WaitGroup
		started = make(chan error, n) // one send per spinner
	)
	for _, cpu := range cpus {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			// Never unlocked: the thread carries the idle policy and the
			// affinity, and ends with this goroutine.
			runtime.LockOSThread()
			err := idleOn(cpu)
			started <- err
			for err == nil && !done.Load() {
			}
		}(cpu)
	}
	stop = func() {
		done.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(old)
	}
	for range cpus {
		if e := <-started; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		stop()
		return func() {}, fmt.Errorf("CPUs not kept awake: %w", err)
	}
	return stop, nil
}

// idleOn pins the calling thread to one CPU and gives it the idle policy.
func idleOn(cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	var prio int32 // struct sched_param: priority 0
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		return fmt.Errorf("sched_setscheduler: %w", e)
	}
	return nil
}
