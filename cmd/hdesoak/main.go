// Command hdesoak is the recovery contract, run against real processes: it
// starts a router and N workers from a built hdeserve binary on loopback
// ports the kernel picks, drives mixed upload/job/read traffic through the
// router, SIGKILLs one worker mid-run and restarts it on the same address
// and data directory. Then every accepted submission must end as exactly
// one result frame in a worker's journal — never under an id it was
// interrupted under — with no intent left pending and no frame refused;
// the victim's graph must come back with the PATCH it took before the
// kill, from a data directory that holds the journal and nothing else;
// and the router must answer for the fleet throughout, and not serve a
// tile of the victim's cached before the kill once the victim is back
// under a new boot id. A race-detector report on any member's stderr
// fails the run, so a hdeserve built with -race arms the race check.
//
// It is not a measuring stick: throughput numbers come from bash
// benchmark/run.sh (serve_jobs). TestCLIHdesoak runs it at smoke size; the
// run's counts are written as JSON for CI artifacts.
//
// Usage:
//
//	go build -o /tmp/hdeserve ./cmd/hdeserve
//	go run ./cmd/hdesoak -bin /tmp/hdeserve -out soak_shard.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
)

type options struct {
	bin      string
	workers  int
	jobs     int
	gridSide int
	subspace int
	out      string
}

// proc is one fleet member: a real hdeserve process we can SIGKILL and
// restart with identical arguments.
type proc struct {
	name   string
	args   []string
	env    []string
	url    string
	cmd    *exec.Cmd
	stderr bytes.Buffer // every run's stderr; read only once the run is reaped
}

func (p *proc) start(bin string) error {
	p.cmd = exec.Command(bin, p.args...)
	p.cmd.Env = append(os.Environ(), p.env...)
	p.cmd.Stderr = io.MultiWriter(os.Stderr, &p.stderr)
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	return nil
}

// kill SIGKILLs the process and returns once it is reaped and its stderr
// copied, so its port is free for a restart.
func (p *proc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// fleet is a router plus its workers, with the temp data dirs that hold
// the durable state the invariants are checked against.
type fleet struct {
	router  *proc
	workers []*proc
	dirs    []string
}

// stop kills every member and waits for each to exit. A race-built member
// reports a race on its stderr and carries on, so a report fails the soak
// here even when every invariant held.
func (f *fleet) stop() error {
	var raced []string
	for _, p := range append([]*proc{f.router}, f.workers...) {
		if p != nil {
			p.kill()
			if bytes.Contains(p.stderr.Bytes(), []byte("WARNING: DATA RACE")) {
				raced = append(raced, p.name)
			}
		}
	}
	if len(raced) > 0 {
		return fmt.Errorf("the race detector reported on the stderr of %v", raced)
	}
	return nil
}

// freeAddrs asks the kernel for n loopback ports nobody holds. Each probe
// listener stays open until the last port is picked, so no two are the
// same.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startFleet launches opt.workers workers (GOMAXPROCS=1 each — one worker
// models one fixed-size box) and a router. Each graph lives on one worker,
// so exactly one result frame per accepted job is the correct final count.
func startFleet(opt options, tmp string) (*fleet, error) {
	addrs, err := freeAddrs(opt.workers + 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	var peers []string
	for i, addr := range addrs[1:] {
		name := fmt.Sprintf("w%d", i+1)
		dir := filepath.Join(tmp, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w := &proc{
			name: name,
			url:  "http://" + addr,
			env:  []string{"GOMAXPROCS=1"},
			args: []string{
				"-worker-id", name,
				"-demo", "-s", "8", "-addr", addr, "-data-dir", dir,
				"-workers", "1", "-queue-depth", "256", "-quiet",
			},
		}
		if err := w.start(opt.bin); err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.dirs = append(f.dirs, dir)
		peers = append(peers, w.url)
	}
	f.router = &proc{
		name: "router",
		url:  "http://" + addrs[0],
		args: []string{
			"-peers", strings.Join(peers, ","), "-addr", addrs[0], "-quiet",
		},
	}
	if err := f.router.start(opt.bin); err != nil {
		f.stop()
		return nil, err
	}
	for _, p := range append(f.workers, f.router) {
		if err := waitHealthy(p.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitHealthy(url string) error {
	return await(url+" healthy", time.Minute, func() (bool, error) {
		code, _, _, err := do(http.MethodGet, url+"/healthz", "")
		return code == http.StatusOK, err
	})
}

// get fetches url and returns the status and body.
func get(url string) (int, []byte, error) {
	code, body, _, err := do(http.MethodGet, url, "")
	return code, body, err
}

// do sends one request with a body (none when empty) and returns the
// status, the body and the worker the router placed it on
// (X-Hdeserve-Worker).
func do(method, url, body string) (int, []byte, string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Hdeserve-Worker"), err
}

// shardz asks the router's /shardz what it knows of worker — whether its
// invalidation feed is live, and the boot id of its hello — and how many
// of the fleet's workers it holds healthy.
func (f *fleet) shardz(worker *proc) (feed bool, boot string, healthy int, err error) {
	code, body, err := get(f.router.url + "/shardz")
	var fleetView struct {
		Peers []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Feed    bool   `json:"feed"`
			Boot    string `json:"boot"`
		} `json:"peers"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &fleetView) != nil {
		return false, "", 0, fmt.Errorf("router /shardz: status %d: %s (%v)", code, body, err)
	}
	for _, p := range fleetView.Peers {
		if p.Healthy {
			healthy++
		}
		if p.URL == worker.url {
			feed, boot = p.Feed, p.Boot
		}
	}
	return feed, boot, healthy, nil
}

// await polls cond every 50 ms until it is done, and returns the error
// it is done with. An error from a poll that is not done is transient:
// await reports only the last one, at the timeout.
func await(what string, timeout time.Duration, cond func() (done bool, err error)) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(50 * time.Millisecond) {
		done, err := cond()
		if done {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v (last error: %v)", what, timeout, err)
		}
	}
}

// drain waits until no worker has a job queued or running and no journal
// leaves an intent pending. Nothing here cancels a job, so one that ends
// cancelled, like one that fails, ends the wait with an error.
func (f *fleet) drain() error {
	return await("the fleet to drain", 5*time.Minute, func() (bool, error) {
		js, err := readJournals(f.dirs)
		if err != nil {
			return true, err
		}
		busy := len(js.pending) > 0
		for _, w := range f.workers {
			var list struct {
				Jobs []struct{ ID, State, Error string }
			}
			code, body, err := get(w.url + "/jobs")
			if err != nil || code != http.StatusOK || json.Unmarshal(body, &list) != nil {
				return false, fmt.Errorf("GET %s/jobs: status %d: %s (%v)", w.url, code, body, err)
			}
			for _, j := range list.Jobs {
				if j.State == "failed" || j.State == "cancelled" {
					return true, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
				}
				busy = busy || j.State == "queued" || j.State == "running"
			}
		}
		return !busy, nil
	})
}

// journals is what the fleet's job journals say between them.
type journals struct {
	results map[string]bool // ids with a result frame
	pending []string        // ids of the intents no later frame resolved
	bytes   int64
}

// readJournals reads every worker's job journal, every checksum verified.
// A worker caught mid-append shows a torn tail, which ReadJournal stops at
// quietly; a frame it refuses, or a second result frame for one job id,
// is an error.
func readJournals(dirs []string) (journals, error) {
	js := journals{results: map[string]bool{}}
	for _, dir := range dirs {
		snap, err := jobs.ReadJournal(dir)
		if err == nil && len(snap.Errs) > 0 {
			err = fmt.Errorf("refused frames: %v", snap.Errs)
		}
		if err != nil {
			return js, fmt.Errorf("journal in %s: %w", dir, err)
		}
		for _, rec := range snap.Results {
			if js.results[rec.Status.ID] {
				return js, fmt.Errorf("job %s has two result frames", rec.Status.ID)
			}
			js.results[rec.Status.ID] = true
		}
		for _, in := range snap.Pending {
			js.pending = append(js.pending, in.ID)
		}
		js.bytes += snap.Bytes
	}
	return js, nil
}

// soakResult is the -out JSON.
type soakResult struct {
	Date     string `json:"date"`
	NumCPU   int    `json:"numCPU"`
	Workers  int    `json:"workers"`
	Jobs     int    `json:"jobs"`
	Replayed int    `json:"replayedIntents"`
	Records  int    `json:"records"`
	Intents  int    `json:"intentsLeft"`
	// JournalBytesPerJob is the fleet's journal bytes over accepted jobs:
	// intent + result frame (8 bytes per coordinate plus a JSON header),
	// and each job's share of the uploads' graph frames.
	JournalBytesPerJob float64 `json:"journalBytesPerJob"`
}

// soak uploads graphs, pushes the job batch through the router, SIGKILLs
// one worker with work queued and running, restarts it, and checks the
// journals once the fleet has drained.
func soak(opt options, f *fleet) (soakResult, error) {
	res := soakResult{
		Date:    time.Now().UTC().Format(time.RFC3339),
		NumCPU:  runtime.NumCPU(),
		Workers: len(f.workers),
		Jobs:    opt.jobs,
	}

	var edges strings.Builder
	if err := graph.WriteEdgeList(&edges, gen.Grid2D(opt.gridSide, opt.gridSide)); err != nil {
		return res, err
	}
	// One graph name per fleet slot ×2 so the ring has names to spread,
	// and more until one lands on the victim's shard (to pin it down with)
	// and one on a survivor's: the ring hashes worker URLs, and the ports
	// in them change from run to run. Job i goes to graph i mod len(names).
	victim := f.workers[len(f.workers)-1]
	var names []string
	victimName, survivorName := "", ""
	for i := 0; i < 2*len(f.workers) || victimName == "" || survivorName == ""; i++ {
		if i == 256 {
			return res, fmt.Errorf("%d graph names and none hashed to %s, or all did", i, victim.name)
		}
		name := fmt.Sprintf("soak%d", i)
		code, body, owner, err := do(http.MethodPost, f.router.url+"/graphs?name="+name, edges.String())
		if err != nil || code != http.StatusCreated {
			return res, fmt.Errorf("upload %s: status %d: %s (%v)", name, code, body, err)
		}
		names = append(names, name)
		if owner == victim.name {
			victimName = name
		} else {
			survivorName = name
		}
	}

	accepted := 0
	submit := func(name string) error {
		spec := fmt.Sprintf(`{"graph":%q,"subspace":%d,"seed":1,"skipQuality":true}`,
			name, opt.subspace)
		code, body, _, err := do(http.MethodPost, f.router.url+"/jobs", spec)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("submit %s: status %d: %s (%v)", name, code, body, err)
		}
		accepted++
		return nil
	}
	// Put a tile of the victim's into the router before anything else: the
	// first picture of victimName, read through the router with the feed up.
	victimStats := "/graphs/" + victimName + "/stats"
	if err := submit(victimName); err != nil {
		return res, err
	}
	if err := await("first layout of "+victimName+" through the router", time.Minute, func() (bool, error) {
		code, _, err := get(f.router.url + victimStats)
		return code == http.StatusOK, err
	}); err != nil {
		return res, err
	}
	// PATCH the victim's graph and let the refinement it queues finish (it
	// carries no intent, so only a finished one is a result frame). The
	// kill must not cost the graph these two edges.
	last := opt.gridSide*opt.gridSide - 1
	code, body, _, err := do(http.MethodPatch, f.router.url+"/graphs/"+victimName,
		fmt.Sprintf(`{"mutations":[{"op":"addEdge","u":0,"v":%d},{"op":"addEdge","u":1,"v":%d}]}`, last, last-1))
	var patched struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err != nil || code != http.StatusAccepted || json.Unmarshal(body, &patched) != nil {
		return res, fmt.Errorf("PATCH %s: status %d: %s (%v)", victimName, code, body, err)
	}
	accepted++
	if err := await("refinement "+patched.Job.ID, time.Minute, func() (bool, error) {
		_, body, err := get(f.router.url + "/jobs/" + patched.Job.ID)
		return bytes.Contains(body, []byte(`"state":"done"`)), err
	}); err != nil {
		return res, err
	}
	patchedEdges := gen.Grid2D(opt.gridSide, opt.gridSide).NumEdges() + 2
	// A router that probed before the workers were listening dials its
	// feeds one health interval later.
	var bootBefore string
	if err := await("router to hear "+victim.name+"'s feed say hello", 30*time.Second, func() (live bool, err error) {
		live, bootBefore, _, err = f.shardz(victim)
		return live, err
	}); err != nil {
		return res, err
	}

	for i := 0; i < opt.jobs; i++ {
		if err := submit(names[i%len(names)]); err != nil {
			return res, err
		}
	}
	if code, body, err := get(f.router.url + "/graphs"); err != nil || code != http.StatusOK {
		return res, fmt.Errorf("GET /graphs through the router with jobs running: status %d: %s (%v)", code, body, err)
	}

	// Pin the victim's single pool worker with a backlog, then
	// SIGKILL it with work queued and running.
	for i := 0; i < 4; i++ {
		if err := submit(victimName); err != nil {
			return res, err
		}
	}
	slog.Info("SIGKILL mid-run", "worker", victim.name)
	victim.kill()
	js, err := readJournals(f.dirs[len(f.dirs)-1:])
	if err != nil {
		return res, err
	}
	interrupted := js.pending
	res.Replayed = len(interrupted)
	slog.Info("died with journaled jobs unresolved", "worker", victim.name, "jobs", res.Replayed)
	if res.Replayed == 0 {
		return res, fmt.Errorf("SIGKILL interrupted nothing; the victim drained its backlog first")
	}
	// A survivor's graph does not go down with it: 200, or 409 before a
	// first layout, never the router's 502.
	if code, body, err := get(f.router.url + "/graphs/" + survivorName + "/stats"); err != nil ||
		code != http.StatusOK && code != http.StatusConflict {
		return res, fmt.Errorf("stats of %s with %s down: status %d: %s (%v)", survivorName, victim.name, code, body, err)
	}
	if err := victim.start(opt.bin); err != nil {
		return res, err
	}
	if err := waitHealthy(victim.url); err != nil {
		return res, err
	}
	var listing struct {
		Graphs []struct {
			Name    string `json:"name"`
			Edges   int64  `json:"edges"`
			Dynamic bool   `json:"dynamic"`
		} `json:"graphs"`
	}
	if code, body, err := get(victim.url + "/graphs"); err != nil || code != http.StatusOK || json.Unmarshal(body, &listing) != nil {
		return res, fmt.Errorf("GET /graphs on the restarted %s: status %d: %s (%v)", victim.name, code, body, err)
	}
	recovered := false
	for _, g := range listing.Graphs {
		if g.Name == victimName {
			recovered = g.Dynamic && g.Edges == patchedEdges
		}
	}
	if !recovered {
		return res, fmt.Errorf("the restarted %s lists %+v; want %s dynamic with %d edges: the PATCH did not survive the kill",
			victim.name, listing.Graphs, victimName, patchedEdges)
	}
	slog.Info("restarted with its graph as PATCHed; replaying journaled jobs", "worker", victim.name, "graph", victimName)

	if err := f.drain(); err != nil {
		return res, err
	}
	// The router must have re-admitted the victim and noticed its new boot
	// (its health loop redials the feed) and, with it, stopped vouching for
	// what it cached before: a read through it now is the recovered
	// worker's own answer.
	if err := await("router to hear the restarted "+victim.name+" with every worker healthy", 30*time.Second, func() (bool, error) {
		live, boot, healthy, err := f.shardz(victim)
		return live && boot != bootBefore && healthy == len(f.workers), err
	}); err != nil {
		return res, err
	}
	_, direct, err := get(victim.url + victimStats)
	if err != nil {
		return res, err
	}
	code, via, err := get(f.router.url + victimStats)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK || !bytes.Equal(via, direct) {
		return res, fmt.Errorf("after the restart the router serves %d %q for %s; the recovered worker serves %q",
			code, via, victimStats, direct)
	}
	// Every graph is servable through the router again. A 409 is a layout
	// that died with the victim — a finished job does not replay, only an
	// unresolved intent does — so a fresh job must bring it back.
	for _, name := range names {
		stats := f.router.url + "/graphs/" + name + "/stats"
		code, body, err := get(stats)
		if err == nil && code == http.StatusConflict {
			if err = submit(name); err == nil {
				err = await("a fresh layout of "+name, time.Minute, func() (bool, error) {
					code, body, err = get(stats)
					return code == http.StatusOK, err
				})
			}
		}
		if err != nil || code != http.StatusOK {
			return res, fmt.Errorf("stats of %s after the restart: status %d: %s (%v)", name, code, body, err)
		}
	}

	if js, err = readJournals(f.dirs); err != nil {
		return res, err
	}
	for _, id := range interrupted {
		if js.results[id] {
			return res, fmt.Errorf("interrupted job %s kept its id across the restart; a replay runs under a fresh one", id)
		}
	}
	res.Records, res.Intents = len(js.results), len(js.pending)
	res.JournalBytesPerJob = float64(js.bytes) / float64(accepted)
	if res.Records != accepted || res.Intents != 0 {
		return res, fmt.Errorf("%d records for %d accepted jobs (want one each), %d intents left after the drain",
			res.Records, accepted, res.Intents)
	}
	for _, dir := range f.dirs {
		if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != jobs.JournalFile {
			return res, fmt.Errorf("%s holds %v, want exactly %s", dir, entries, jobs.JournalFile)
		}
	}
	return res, nil
}

func main() {
	var opt options
	flag.StringVar(&opt.bin, "bin", "", "path to a built hdeserve binary (required)")
	flag.IntVar(&opt.workers, "workers", 4, "fleet size (at least 2: one to kill, one to keep serving)")
	flag.IntVar(&opt.jobs, "jobs", 24, "layout jobs submitted before the kill")
	flag.IntVar(&opt.gridSide, "grid", 80, "side of the square grid graph each job lays out")
	flag.IntVar(&opt.subspace, "s", 128, "job subspace dimension (bigger = slower jobs)")
	flag.StringVar(&opt.out, "out", "soak_shard.json", "result JSON path")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)).With("cmd", "hdesoak"))
	if err := run(opt); err != nil {
		slog.Error("soak failed", "err", err)
		os.Exit(1)
	}
}

// run soaks a fleet and stops it whatever the soak returns: a leaked
// worker process would outlive the harness and hold its port.
func run(opt options) error {
	if opt.bin == "" || opt.workers < 2 {
		return errors.New("need -bin (go build -o /tmp/hdeserve ./cmd/hdeserve) and -workers ≥ 2")
	}
	tmp, err := os.MkdirTemp("", "hdesoak")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	slog.Info("soak", "workers", opt.workers, "jobs", opt.jobs, "kills", 1)
	f, err := startFleet(opt, tmp)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := soak(opt, f)
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	blob, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(opt.out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	slog.Info("done: no job dropped", "seconds", time.Since(start).Round(100*time.Millisecond).Seconds(),
		"replayed", res.Replayed, "records", res.Records, "journalBytesPerJob", res.JournalBytesPerJob, "out", opt.out)
	return nil
}
