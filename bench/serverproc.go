package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// buildServer compiles cmd/sqlshare-server from the checkout the benchmark
// runs in, so the server measured is always the commit under test. The
// build cache makes every call after the first a sub-second no-op.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "sqlshare-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "sqlshare/cmd/sqlshare-server")
	cmd.Dir = "bench" // the benchmark's module; it replaces sqlshare with the checkout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build sqlshare-server: %w", err)
	}
	return bin, nil
}

// serverProc is one sqlshare-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	log     *os.File
	waited  chan struct{}
	waitErr error
}

// startServer launches the server on a free loopback port with the given
// extra flags (none = what an operator gets by default) and returns once
// /api/health answers. Its stderr is appended to logPath.
func startServer(ctx context.Context, bin, logPath string, flags ...string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stderr = logf
	sp := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, waited: make(chan struct{})}
	sp.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() {
		sp.waitErr = cmd.Wait()
		close(sp.waited)
	}()
	if err := sp.awaitHealthy(ctx, 60*time.Second); err != nil {
		sp.kill()
		return nil, err
	}
	return sp, nil
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// awaitHealthy polls /api/health until it answers 200, the process exits or
// the limit passes.
func (sp *serverProc) awaitHealthy(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", sp.base+"/api/health", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-sp.waited:
			return fmt.Errorf("server exited before becoming healthy: %v", sp.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("server did not become healthy in time")
		}
	}
}

// stop asks the server to shut down and waits for it to exit, killing it if
// the drain takes too long.
func (sp *serverProc) stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-sp.waited:
	case <-time.After(10 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.waited
	}
	sp.log.Close()
}

// kill is SIGKILL: the process gets no chance to flush anything.
func (sp *serverProc) kill() {
	_ = sp.cmd.Process.Kill() // already-exited is fine
	<-sp.waited
	sp.log.Close()
}
