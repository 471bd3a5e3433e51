// Command logmobd runs a logmob middleware node over real TCP and provides
// client subcommands to talk to one, demonstrating that the kernel is not
// simulator-bound.
//
// Usage:
//
//	logmobd serve -listen 127.0.0.1:7001 [-allow-unsigned] [-seeds A,B] [-probe 2s]
//	    Run a node serving Remote Evaluation, hosting agents, offering an
//	    "echo" service and publishing a demo component "tool/add". With
//	    -seeds, join the cluster bootstrapped through those addresses.
//
//	logmobd call -to ADDR -service echo -arg hello
//	    Invoke a Client/Server service.
//
//	logmobd eval -to ADDR -src prog.s [-entry main] [-args 1,2]
//	    Assemble a local program and ship it for Remote Evaluation.
//
//	logmobd fetch -to ADDR -name tool/add [-entry main] [-args 1,2]
//	    Fetch a published component (Code On Demand) and run it locally.
//
//	logmobd bench -seeds A[,B...] [-rounds 20] [-require-delivery]
//	    Join the cluster and replay a T1-style scenario workload against
//	    the live members, reporting the same metrics tables as simulated
//	    runs.
//
// Client subcommands accept -timeout to bound the wait (default 30s).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"logmob/internal/agent"
	"logmob/internal/cluster"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/scenario"
	"logmob/internal/security"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: logmobd serve|call|eval|fetch|bench ...")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "call":
		err = cmdCall(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "fetch":
		err = cmdFetch(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, "usage: logmobd serve|call|eval|fetch|bench ...")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "logmobd: %v\n", err)
		os.Exit(1)
	}
}

// newTCPHost builds a kernel host on a TCP endpoint.
func newTCPHost(listen string, allowUnsigned, servePublish bool) (*core.Host, error) {
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		return nil, err
	}
	return core.NewHost(core.Config{
		Endpoint:     ep,
		Scheduler:    transport.NewWallScheduler(),
		Policy:       security.Policy{AllowUnsigned: allowUnsigned},
		ServeEval:    true,
		ServePublish: servePublish,
	})
}

// joinCluster attaches a membership node to the host's cluster channel.
func joinCluster(h *core.Host, seeds []string, probe time.Duration) *cluster.Node {
	return cluster.Join(h.Mux().Channel(transport.ChanCluster), h.Scheduler(), cluster.Config{
		Seeds:      seeds,
		ProbeEvery: probe,
		OnJoin:     func(addr string) { fmt.Printf("cluster: %s joined\n", addr) },
		OnLeave:    func(addr string) { fmt.Printf("cluster: %s evicted\n", addr) },
	})
}

// splitSeeds parses a comma-separated seed list.
func splitSeeds(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7001", "listen address")
	allowUnsigned := fs.Bool("allow-unsigned", true, "accept unsigned units (demo default)")
	seeds := fs.String("seeds", "", "comma-separated cluster seed addresses")
	probe := fs.Duration("probe", 2*time.Second, "cluster liveness probe interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := newTCPHost(*listen, *allowUnsigned, true)
	if err != nil {
		return err
	}
	h.RegisterService("echo", func(from string, args [][]byte) ([][]byte, error) {
		fmt.Printf("echo from %s: %d frame(s)\n", from, len(args))
		return args, nil
	})
	h.RegisterService(scenario.SinkServiceName, scenario.SinkService())
	addUnit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "tool/add", Version: "1.0", Kind: lmu.KindComponent},
		Code:     vm.MustAssemble(".entry main\nmain:\nadd\nhalt\n").Encode(),
	}
	if err := h.Publish(addUnit); err != nil {
		return err
	}
	agent.NewPlatform(h, agent.Env{
		Seed: time.Now().UnixNano(),
		OnDone: func(r agent.Record) {
			fmt.Printf("agent %s finished: %v (stack %v)\n", r.ID, r.Status, r.Stack)
		},
	})
	h.OnMessage(func(from, topic string, data []byte) {
		fmt.Printf("message from %s [%s]: %q\n", from, topic, data)
	})

	// Always a cluster member, even with no seeds: a seed node has nobody
	// to bootstrap from but must still answer joiners' hellos.
	member := joinCluster(h, splitSeeds(*seeds), *probe)

	fmt.Printf("logmobd node %s: serving eval, hosting agents, publishing tool/add\n", h.Addr())
	sig := make(chan os.Signal, 1)
	// SIGTERM too: process managers and CI send it, and a daemon that only
	// honours ^C never runs its shutdown path under them.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	member.Close()
	return h.Close()
}

// clientHost makes an ephemeral host for one client operation.
func clientHost() (*core.Host, error) {
	return newTCPHost("127.0.0.1:0", true, false)
}

func cmdCall(args []string) error {
	fs := flag.NewFlagSet("call", flag.ExitOnError)
	to := fs.String("to", "", "server address")
	service := fs.String("service", "echo", "service name")
	arg := fs.String("arg", "", "single string argument")
	timeout := fs.Duration("timeout", 30*time.Second, "reply wait timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("call: -to is required")
	}
	h, err := clientHost()
	if err != nil {
		return err
	}
	defer h.Close()
	done := make(chan error, 1)
	h.Call(*to, *service, [][]byte{[]byte(*arg)}, func(results [][]byte, err error) {
		if err == nil {
			for i, r := range results {
				fmt.Printf("result[%d] = %q\n", i, r)
			}
		}
		done <- err
	})
	return wait(done, *timeout)
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	to := fs.String("to", "", "server address")
	src := fs.String("src", "", "assembly source file")
	entry := fs.String("entry", "main", "entry point")
	argList := fs.String("args", "", "comma-separated integer args")
	timeout := fs.Duration("timeout", 30*time.Second, "reply wait timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" || *src == "" {
		return fmt.Errorf("eval: -to and -src are required")
	}
	ints, err := parseInts(*argList)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		return err
	}
	prog, err := vm.Assemble(string(text))
	if err != nil {
		return err
	}
	unit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "cli/" + *src, Version: "1.0", Kind: lmu.KindRequest},
		Code:     prog.Encode(),
	}
	h, err := clientHost()
	if err != nil {
		return err
	}
	defer h.Close()
	done := make(chan error, 1)
	h.Eval(*to, unit, *entry, ints, func(stack []int64, err error) {
		if err == nil {
			fmt.Printf("stack: %v\n", stack)
		}
		done <- err
	})
	return wait(done, *timeout)
}

func cmdFetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	to := fs.String("to", "", "server address")
	name := fs.String("name", "tool/add", "published unit name")
	entry := fs.String("entry", "main", "entry point to run after fetching")
	argList := fs.String("args", "20,22", "comma-separated integer args")
	timeout := fs.Duration("timeout", 30*time.Second, "reply wait timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("fetch: -to is required")
	}
	ints, err := parseInts(*argList)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	h, err := clientHost()
	if err != nil {
		return err
	}
	defer h.Close()
	done := make(chan error, 1)
	h.Fetch(*to, *name, "", func(u *lmu.Unit, err error) {
		if err != nil {
			done <- err
			return
		}
		fmt.Printf("fetched %s@%s (%d bytes)\n", u.Manifest.Name, u.Manifest.Version, u.Size())
		stack, err := h.RunComponent(*name, *entry, ints...)
		if err == nil {
			fmt.Printf("local run stack: %v\n", stack)
		}
		done <- err
	})
	return wait(done, *timeout)
}

// parseInts parses a comma-separated -args list. A value that is not an
// integer fails the whole list: an eval shipped with fewer arguments than
// asked for would compute something else.
func parseInts(list string) ([]int64, error) {
	if list == "" {
		return nil, nil
	}
	var out []int64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-args: bad integer %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func wait(done chan error, timeout time.Duration) error {
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("timed out after %v", timeout)
	}
}
