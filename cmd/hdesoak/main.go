// Command hdesoak soak-tests a sharded hdeserve fleet end to end, with
// real processes: it starts a router and N workers from a built hdeserve
// binary, drives mixed upload/job/read traffic through the router,
// SIGKILLs one worker mid-run and restarts it on the same address and
// data directory, and verifies the zero-dropped-jobs invariant — every
// accepted submission ends as exactly one result frame in a worker's
// journal with no intent left pending — and that the victim's graph comes
// back with the PATCH it took before the kill, from a data directory that
// holds the journal and nothing else.
//
// Around the kill it also holds the router's tile cache to the restart: a
// tile of the victim's cached before the kill must not be what the router
// serves once the victim is back under a new boot id.
//
// It is the recovery contract, not a measuring stick: throughput numbers
// come from bash benchmark/run.sh (serve_jobs). The run's counts are
// written as JSON for CI artifacts.
//
// Usage:
//
//	go build -o /tmp/hdeserve ./cmd/hdeserve
//	go run ./cmd/hdesoak -bin /tmp/hdeserve -out soak_shard.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
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
	basePort int
	out      string
}

// proc is one fleet member: a real hdeserve process we can SIGKILL and
// restart with identical arguments.
type proc struct {
	name string
	args []string
	env  []string
	url  string
	cmd  *exec.Cmd
}

func (p *proc) start(bin string) error {
	p.cmd = exec.Command(bin, p.args...)
	p.cmd.Env = append(os.Environ(), p.env...)
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	go p.cmd.Wait() // reap whenever it exits; we poll health, not the process
	return nil
}

func (p *proc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

func waitHealthy(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", url, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fleet is a router plus its workers, with the temp data dirs that hold
// the durable state the invariants are checked against.
type fleet struct {
	router  *proc
	workers []*proc
	dirs    []string
}

func (f *fleet) stop() {
	if f.router != nil {
		f.router.kill()
	}
	for _, w := range f.workers {
		w.kill()
	}
}

// startFleet launches opt.workers workers (GOMAXPROCS=1 each — one worker
// models one fixed-size box) and a router. Each graph lives on one worker,
// so exactly one result frame per accepted job is the correct final count.
func startFleet(opt options, tmp string) (*fleet, error) {
	n := opt.workers
	// Pre-flight: every port must be free, or a stray process from an
	// earlier run would answer our health checks in the fleet's place.
	// An earlier run's SIGKILLed fleet can take a moment to release its
	// ports, so give each one a few seconds.
	for i := 0; i <= n; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", opt.basePort+i)
		deadline := time.Now().Add(10 * time.Second)
		for {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				ln.Close()
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("port check %s: %w (stray hdeserve process?)", addr, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	f := &fleet{}
	var peers []string
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", opt.basePort+1+i)
		dir := filepath.Join(tmp, fmt.Sprintf("w%d", i+1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w := &proc{
			name: fmt.Sprintf("w%d", i+1),
			url:  "http://" + addr,
			env:  []string{"GOMAXPROCS=1"},
			args: []string{
				"-worker-id", fmt.Sprintf("w%d", i+1),
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
	raddr := fmt.Sprintf("127.0.0.1:%d", opt.basePort)
	f.router = &proc{
		name: "router",
		url:  "http://" + raddr,
		args: []string{
			"-peers", strings.Join(peers, ","), "-addr", raddr, "-quiet",
		},
	}
	if err := f.router.start(opt.bin); err != nil {
		f.stop()
		return nil, err
	}
	for _, w := range f.workers {
		if err := waitHealthy(w.url, 60*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	if err := waitHealthy(f.router.url, 30*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func post(url, ctype string, body []byte) (int, []byte, string, error) {
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Hdeserve-Worker"), nil
}

// get fetches url and returns the status and body.
func get(url string) (int, []byte, error) { return do(http.MethodGet, url, "") }

// do sends one request with a JSON body (none when empty).
func do(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// feedOf asks the router's /shardz what it knows of one worker's
// invalidation feed: whether it is live, and the boot id of its hello.
func (f *fleet) feedOf(worker *proc) (live bool, boot string, err error) {
	code, body, err := get(f.router.url + "/shardz")
	if err != nil || code != http.StatusOK {
		return false, "", fmt.Errorf("router /shardz: status %d: %v", code, err)
	}
	var fleetView struct {
		Peers []struct {
			URL  string `json:"url"`
			Feed bool   `json:"feed"`
			Boot string `json:"boot"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(body, &fleetView); err != nil {
		return false, "", err
	}
	for _, p := range fleetView.Peers {
		if p.URL == worker.url {
			return p.Feed, p.Boot, nil
		}
	}
	return false, "", fmt.Errorf("router /shardz does not list %s", worker.url)
}

// await polls cond every 50 ms until it holds.
func await(what string, timeout time.Duration, cond func() (bool, error)) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(50 * time.Millisecond) {
		ok, err := cond()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v (last error: %v)", what, timeout, err)
		}
	}
}

// drain polls every worker until no job is queued or running and no
// journal leaves an intent pending.
func (f *fleet) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		busy := false
		for _, w := range f.workers {
			resp, err := http.Get(w.url + "/jobs")
			if err != nil {
				busy = true // restarting worker; keep waiting
				break
			}
			var list struct {
				Jobs []struct {
					ID    string `json:"id"`
					State string `json:"state"`
					Error string `json:"error"`
				} `json:"jobs"`
			}
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
			if err != nil {
				return err
			}
			for _, j := range list.Jobs {
				if j.State == "queued" || j.State == "running" {
					busy = true
				}
				if j.State == "failed" {
					return fmt.Errorf("job %s failed: %s", j.ID, j.Error)
				}
			}
		}
		_, pending, _ := readJournals(f.dirs)
		if !busy && pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not drain within %v (%d intents pending)", timeout, pending)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// readJournals sums the fleet's job journals: result frames, intents no
// later frame resolved, and bytes. Every checksum is verified; a worker
// caught mid-append shows a torn tail, which ReadJournal stops at quietly,
// and one that has not created its journal yet counts as empty.
func readJournals(dirs []string) (results, pending int, bytes int64) {
	for _, dir := range dirs {
		snap, err := jobs.ReadJournal(dir)
		if err != nil {
			continue
		}
		for _, err := range snap.Errs {
			log.Printf("journal %s: %v", dir, err)
		}
		results += len(snap.Results)
		pending += len(snap.Pending)
		bytes += snap.Bytes
	}
	return results, pending, bytes
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

	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, gen.Grid2D(opt.gridSide, opt.gridSide)); err != nil {
		return res, err
	}
	// One graph name per fleet slot ×2 so the ring has names to spread;
	// job i goes to graph i mod len(names). The X-Hdeserve-Worker header
	// on each upload response names the shard the router placed it on.
	victim := f.workers[len(f.workers)-1]
	names := make([]string, 0, 2*len(f.workers))
	victimName := ""
	uploadTo := func(name string) (owner string, err error) {
		code, body, owner, err := post(f.router.url+"/graphs?name="+name, "text/plain", edges.Bytes())
		if err != nil {
			return "", err
		}
		if code != http.StatusCreated {
			return "", fmt.Errorf("upload %s: status %d: %s", name, code, body)
		}
		return owner, nil
	}
	for i := 0; i < 2*len(f.workers); i++ {
		name := fmt.Sprintf("soak%d", i)
		owner, err := uploadTo(name)
		if err != nil {
			return res, err
		}
		if owner == victim.name {
			victimName = name
		}
		names = append(names, name)
	}
	// The kill needs a graph on the victim's shard to pin it down with;
	// scan extra names until the ring lands one there.
	for i := 0; victimName == "" && i < 256; i++ {
		name := fmt.Sprintf("pin%d", i)
		owner, err := uploadTo(name)
		if err != nil {
			return res, err
		}
		if owner == victim.name {
			victimName = name
		}
	}
	if victimName == "" {
		return res, fmt.Errorf("no probe name hashed to %s", victim.name)
	}

	accepted := 0
	submit := func(name string) error {
		spec := fmt.Sprintf(`{"graph":%q,"subspace":%d,"seed":1,"skipQuality":true}`,
			name, opt.subspace)
		code, body, _, err := post(f.router.url+"/jobs", "application/json", []byte(spec))
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("submit %s: status %d: %s", name, code, body)
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
	code, body, err := do(http.MethodPatch, f.router.url+"/graphs/"+victimName,
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
		live, bootBefore, err = f.feedOf(victim)
		return live, err
	}); err != nil {
		return res, err
	}

	for i := 0; i < opt.jobs; i++ {
		if err := submit(names[i%len(names)]); err != nil {
			return res, err
		}
	}

	// Pin the victim's single pool worker with a backlog, then
	// SIGKILL it with work queued and running.
	for i := 0; i < 4; i++ {
		if err := submit(victimName); err != nil {
			return res, err
		}
	}
	log.Printf("SIGKILL %s mid-run", victim.name)
	victim.kill()
	time.Sleep(300 * time.Millisecond) // let the OS release the port
	_, res.Replayed, _ = readJournals(f.dirs[len(f.dirs)-1:])
	log.Printf("%s died with %d journaled jobs unresolved", victim.name, res.Replayed)
	if res.Replayed == 0 {
		return res, fmt.Errorf("SIGKILL interrupted nothing; the victim drained its backlog first")
	}
	if err := victim.start(opt.bin); err != nil {
		return res, err
	}
	if err := waitHealthy(victim.url, 60*time.Second); err != nil {
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
	log.Printf("%s restarted with %s as PATCHed; replaying journaled jobs", victim.name, victimName)

	if err := f.drain(5 * time.Minute); err != nil {
		return res, err
	}
	// The router must have noticed the new boot (its health loop redials
	// the feed) and, with it, stopped vouching for what it cached before:
	// a read through it now is the recovered worker's own answer.
	if err := await("router to hear the restarted "+victim.name, 30*time.Second, func() (bool, error) {
		live, boot, err := f.feedOf(victim)
		return live && boot != bootBefore, err
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
	var journalBytes int64
	res.Records, res.Intents, journalBytes = readJournals(f.dirs)
	res.JournalBytesPerJob = float64(journalBytes) / float64(accepted)
	if res.Intents != 0 {
		return res, fmt.Errorf("%d intents left after drain", res.Intents)
	}
	if res.Records != accepted {
		return res, fmt.Errorf("records = %d, want %d (one per accepted job): jobs were dropped or duplicated",
			res.Records, accepted)
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
	flag.IntVar(&opt.workers, "workers", 4, "fleet size")
	flag.IntVar(&opt.jobs, "jobs", 24, "layout jobs submitted before the kill")
	flag.IntVar(&opt.gridSide, "grid", 80, "side of the square grid graph each job lays out")
	flag.IntVar(&opt.subspace, "s", 128, "job subspace dimension (bigger = slower jobs)")
	flag.IntVar(&opt.basePort, "port", 18300, "base port (router; workers use the ports above it)")
	flag.StringVar(&opt.out, "out", "soak_shard.json", "result JSON path")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("hdesoak: ")
	if opt.bin == "" {
		log.Fatal("-bin is required (go build -o /tmp/hdeserve ./cmd/hdeserve)")
	}

	tmp, err := os.MkdirTemp("", "hdesoak")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	log.Printf("%d worker(s), %d jobs, one SIGKILL + restart", opt.workers, opt.jobs)
	f, err := startFleet(opt, tmp)
	if err != nil {
		os.RemoveAll(tmp)
		log.Fatal(err)
	}
	start := time.Now()
	res, err := soak(opt, f)
	// log.Fatal skips defers, so the fleet is stopped explicitly — a
	// leaked worker process would outlive the harness and hold its port.
	f.stop()
	if err != nil {
		os.RemoveAll(tmp)
		log.Fatal(err)
	}

	blob, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(opt.out, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("done in %.1fs: %d intents replayed, %d records (one per accepted job), 0 dropped, %.0f journal bytes/job → %s",
		time.Since(start).Seconds(), res.Replayed, res.Records, res.JournalBytesPerJob, opt.out)
}
