package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// senderEnv marks a process started as the load sender. The sender is
// a process of its own, as a bus feed is in production: the kernel,
// not the daemon's busy Go scheduler, decides when it runs, and its CPU
// is not charged to the daemon. Sharing the daemon's two Ps, a sender
// goroutine runs milliseconds late whenever both are scoring a batch —
// the open loop falls behind its schedule and the closed loop lets the
// socket run dry.
const senderEnv = "PERFBENCH_SENDER"

// passReport is the closed-loop sender's account of one pass: after
// each write, the capture offset written up to and the time (Unix ns)
// the write returned.
type passReport struct {
	Ends  []int   `json:"ends"`
	Times []int64 `json:"times"`
}

// openReport is the open-loop sender's last line of output.
type openReport struct {
	Frames   int   `json:"frames"`
	LagP99NS int64 `json:"lag_p99_ns"`
}

// senderMain runs the sender process with its command-line arguments
// and returns the exit code.
func senderMain(args []string) int {
	fs := flag.NewFlagSet("sender", flag.ContinueOnError)
	capture := fs.String("capture", "", "capture file")
	records := fs.Int("records", 0, "leading records of the capture to send")
	rate := fs.Float64("rate", 0, "open loop: frames/s per bus; 0 is the closed loop")
	socks := fs.String("socks", "", "comma-separated unix socket per bus")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := func() error {
		data, err := mapFile(*capture)
		if err != nil {
			return err
		}
		in := &inputs{capture: data}
		if err := in.scan(); err != nil {
			return err
		}
		if err := in.truncate(*records); err != nil {
			return err
		}
		if *rate > 0 {
			return sendOpen(in, *rate, strings.Split(*socks, ","), os.Stdin, os.Stdout)
		}
		return sendClosed(in, *socks, os.Stdin, os.Stdout)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sender:", err)
		return 1
	}
	return 0
}

// sendClosed streams the capture over a fresh connection, as fast as
// the socket accepts, once per "pass" line on stdin, and reports each
// pass.
func sendClosed(in *inputs, sock string, stdin io.Reader, stdout io.Writer) error {
	const chunk = 64 << 10
	fmt.Fprintln(stdout, "ready")
	enc := json.NewEncoder(stdout)
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			return err
		}
		var rep passReport
		for off := 0; off < len(in.capture); {
			k, err := conn.Write(in.capture[off:min(off+chunk, len(in.capture))])
			off += k
			rep.Ends = append(rep.Ends, off)
			rep.Times = append(rep.Times, time.Now().UnixNano())
			if err != nil {
				conn.Close()
				return err
			}
		}
		if err := conn.Close(); err != nil {
			return err
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return sc.Err()
}

// sendOpen dials every bus, writes the capture header, prints "ready",
// reads the schedule start (Unix ns) from stdin, writes every record of
// every bus at its due time in due order, closes the connections and
// prints its report.
func sendOpen(in *inputs, rate float64, socks []string, stdin io.Reader, stdout io.Writer) error {
	nb, n := len(socks), in.records()
	conns := make([]net.Conn, 0, nb)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, sock := range socks {
		c, err := net.Dial("unix", sock)
		if err != nil {
			return err
		}
		conns = append(conns, c)
		if _, err := c.Write(in.capture[:in.headerLen]); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "ready")
	var start int64
	if _, err := fmt.Fscan(stdin, &start); err != nil {
		return fmt.Errorf("reading the schedule start: %w", err)
	}

	lags := make([]int64, 0, nb*n)
	next := make([]int, nb)
	for {
		b := -1
		for k := range next {
			if next[k] < n && (b < 0 || in.due(start, k, nb, next[k], rate) < in.due(start, b, nb, next[b], rate)) {
				b = k
			}
		}
		if b < 0 {
			break
		}
		when := in.due(start, b, nb, next[b], rate)
		if wait := when - time.Now().UnixNano(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		lags = append(lags, time.Now().UnixNano()-when)
		if _, err := conns[b].Write(in.frame(next[b])); err != nil {
			return err
		}
		next[b]++
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			return err
		}
	}
	conns = nil
	return json.NewEncoder(stdout).Encode(openReport{Frames: len(lags), LagP99NS: percentile(lags, 99)})
}

// sender is a running sender process.
type sender struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// startSender starts the sender process for the given buses — open
// loop at rate frames/s per bus, or the closed loop when rate is zero —
// and waits until it is ready.
func startSender(in *inputs, socks []string, rate float64) (*sender, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-capture", in.capturePath, "-records", strconv.Itoa(in.records()),
		"-rate", strconv.FormatFloat(rate, 'g', -1, 64), "-socks", strings.Join(socks, ","))
	cmd.Env = append(os.Environ(), senderEnv+"=1")
	cmd.Stderr = os.Stderr
	s := &sender{cmd: cmd}
	if s.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.stdout = bufio.NewReader(out)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if line, err := s.stdout.ReadString('\n'); err != nil || line != "ready\n" {
		s.kill()
		return nil, fmt.Errorf("sender did not start: %q %v", line, err)
	}
	return s, nil
}

// pass has the closed-loop sender stream the capture once.
func (s *sender) pass() (passReport, error) {
	var rep passReport
	if _, err := fmt.Fprintln(s.stdin, "pass"); err != nil {
		return rep, err
	}
	line, err := s.stdout.ReadBytes('\n')
	if err != nil {
		return rep, fmt.Errorf("sender: %w", err)
	}
	return rep, json.Unmarshal(line, &rep)
}

// finish ends the closed-loop sender and waits for it to exit.
func (s *sender) finish() error {
	s.stdin.Close()
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("sender: %w", err)
	}
	return nil
}

// run hands the open-loop sender its schedule start and waits for its
// report and its exit.
func (s *sender) run(start int64) (openReport, error) {
	var rep openReport
	if _, err := fmt.Fprintln(s.stdin, start); err != nil {
		s.kill()
		return rep, err
	}
	s.stdin.Close()
	decErr := json.NewDecoder(s.stdout).Decode(&rep)
	if err := s.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("sender: %w", err)
	}
	if decErr != nil {
		return rep, fmt.Errorf("sender report: %w", decErr)
	}
	if rep.Frames == 0 {
		return rep, errors.New("sender sent nothing")
	}
	return rep, nil
}

// kill stops the sender, unless it has already exited, and waits for
// it to end.
func (s *sender) kill() {
	if s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}
