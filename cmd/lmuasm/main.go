// Command lmuasm assembles, disassembles and runs logmob VM programs.
//
// Usage:
//
//	lmuasm asm [-o prog.bin] prog.s        assemble to bytecode
//	lmuasm dis prog.bin                    disassemble to stdout
//	lmuasm run [-entry main] [-args 1,2,3] [-fuel N] prog.s|prog.bin
//
// run links a small standard capability set: now_ms, log and rand.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"logmob/internal/vm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  lmuasm asm [-o prog.bin] prog.s
  lmuasm dis prog.bin
  lmuasm run [-entry main] [-args 1,2,3] [-fuel N] prog.s|prog.bin`

// errUsage marks a command line the flag package already complained about.
var errUsage = errors.New("usage")

// run is the command. It returns the exit code: 2 for a command line it
// cannot read, 1 for a command that failed, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func([]string, io.Writer, io.Writer) error{"asm": cmdAsm, "dis": cmdDis, "run": cmdRun}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch err := cmds[args[0]](args[1:], stdout, stderr); {
	case errors.Is(err, errUsage):
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "lmuasm: %v\n", err)
		return 1
	}
	return 0
}

// parse reads one subcommand's flags; what it cannot read is a usage error,
// already reported on stderr.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	return nil
}

func cmdAsm(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: input with .bin)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm: need exactly one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := vm.Assemble(string(src))
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(fs.Arg(0), ".s") + ".bin"
	}
	if err := os.WriteFile(dst, prog.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d instructions, %d entries, %d imports -> %s\n",
		fs.Arg(0), len(prog.Code), len(prog.Entries), len(prog.Imports), dst)
	return nil
}

func cmdDis(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dis", flag.ContinueOnError)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dis: need exactly one bytecode file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := vm.DecodeProgram(data)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, vm.Disassemble(prog))
	return nil
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	entry := fs.String("entry", "main", "entry point")
	argList := fs.String("args", "", "comma-separated integer arguments")
	fuel := fs.Int64("fuel", 10_000_000, "instruction budget")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one program file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var prog *vm.Program
	if strings.HasSuffix(fs.Arg(0), ".s") {
		prog, err = vm.Assemble(string(data))
	} else {
		prog, err = vm.DecodeProgram(data)
	}
	if err != nil {
		return err
	}

	host := vm.NewHostTable()
	start := time.Now()
	host.Register(vm.HostFunc{Name: "now_ms", Arity: 0,
		Fn: func(*vm.Machine, []int64) ([]int64, int64, error) {
			return []int64{time.Since(start).Milliseconds()}, 0, nil
		}})
	host.Register(vm.HostFunc{Name: "log", Arity: 1,
		Fn: func(_ *vm.Machine, a []int64) ([]int64, int64, error) {
			fmt.Fprintf(stdout, "log: %d\n", a[0])
			return nil, 0, nil
		}})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	host.Register(vm.HostFunc{Name: "rand", Arity: 1,
		Fn: func(_ *vm.Machine, a []int64) ([]int64, int64, error) {
			if a[0] <= 0 {
				return []int64{0}, 0, nil
			}
			return []int64{rng.Int63n(a[0])}, 0, nil
		}})

	m, err := vm.New(prog, host, *fuel)
	if err != nil {
		return err
	}
	var entryArgs []int64
	if *argList != "" {
		for _, s := range strings.Split(*argList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fmt.Errorf("run: bad argument %q", s)
			}
			entryArgs = append(entryArgs, v)
		}
	}
	if err := m.SetEntry(*entry, entryArgs...); err != nil {
		return err
	}
	wall := time.Now()
	runErr := m.Run()
	elapsed := time.Since(wall)
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(stdout, "status: %s\nsteps: %d (%.1f M/s)\nstack: %v\n",
		m.Status(), m.Steps, float64(m.Steps)/elapsed.Seconds()/1e6, m.Stack())
	return nil
}
