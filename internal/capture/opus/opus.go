// Package opus simulates OPUS 0.1.0.26: user-space provenance capture
// by interposition on dynamically-linked C library calls, stored in a
// Neo4j database (simulated by neo4jsim). Consequences modelled from
// the paper:
//
//   - OPUS sees *attempted* calls, so failed syscalls produce the same
//     structure with a retval property of -1 (the Alice use case);
//   - it is blind to anything that bypasses libc interposition: raw
//     clone(2) and tee, plus calls outside its interposition list
//     (mknodat, setresuid, setresgid);
//   - pure read/write activity on already-open descriptors (read,
//     write, pread, pwrite, fchmod, fchown) does not change the
//     process's fd state and is not recorded by the default config;
//   - its Provenance Versioning Model yields larger graphs (per-call
//     event nodes, global name nodes, local fd nodes, version chains),
//     and the process node carries the whole environment, which is why
//     OPUS graphs are big and slow to extract (Figures 6 and 9).
package opus

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/neo4jsim"
	"provmark/internal/oskernel"
)

// Config tunes the OPUS simulator.
type Config struct {
	// RecordReadsWrites enables the non-default configuration that
	// tracks read/write activity.
	RecordReadsWrites bool
	// DB passes storage-cost options through to the Neo4j simulator.
	DB neo4jsim.Options
}

// DefaultConfig is the paper's baseline configuration.
func DefaultConfig() Config { return Config{} }

// Recorder is the OPUS simulator.
type Recorder struct {
	cfg Config
}

var _ capture.Recorder = (*Recorder)(nil)

// New builds an OPUS recorder.
func New(cfg Config) *Recorder { return &Recorder{cfg: cfg} }

// Name implements capture.Recorder.
func (r *Recorder) Name() string { return "opus" }

// DefaultTrials implements capture.Recorder: any two OPUS runs are
// usually consistent (Section 3.2).
func (r *Recorder) DefaultTrials() int { return 2 }

// FilterGraphs implements capture.Recorder (false for OPUS).
func (r *Recorder) FilterGraphs() bool { return false }

// Output wraps the Neo4j database an OPUS run produced.
type Output struct {
	DB *neo4jsim.DB
}

// Format implements capture.Native.
func (Output) Format() string { return "neo4j" }

// interposed is OPUS's interposition list: the libc symbols it wraps.
var interposed = map[string]bool{
	"open": true, "openat": true, "creat": true, "close": true,
	"dup": true, "dup2": true, "dup3": true,
	"link": true, "linkat": true, "symlink": true, "symlinkat": true,
	"mknod": true, // mknodat is absent from the wrapper list
	"read":  true, "pread": true, "write": true, "pwrite": true,
	"rename": true, "renameat": true, "truncate": true, "ftruncate": true,
	"unlink": true, "unlinkat": true,
	"fork": true, "vfork": true, "execve": true, "exit": true, "kill": true,
	"chmod": true, "fchmodat": true, "chown": true, "fchownat": true,
	"fchmod": true, "fchown": true,
	"setuid": true, "setreuid": true, "setgid": true, "setregid": true,
	"pipe": true, "pipe2": true,
}

// fdOnly marks interposed calls the default config skips because they
// only perform read/write-style activity on existing descriptors.
var fdOnly = map[string]bool{
	"read": true, "pread": true, "write": true, "pwrite": true,
	"fchmod": true, "fchown": true,
}

// Record implements capture.Recorder.
func (r *Recorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	tap, err := capture.RunTrial(ctx, "opus", prog, v)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(trial)*6151 + int64(len(prog.Name))*13007 + int64(v)*3))
	db := neo4jsim.New(r.cfg.DB)
	b := &builder{r: r, db: db, rng: rng,
		tsOffset:   rng.Int63n(1_000_000_000_000),
		procNode:   make(map[int]neo4jsim.NodeID),
		localNode:  make(map[string]neo4jsim.NodeID),
		globalNode: make(map[string]neo4jsim.NodeID),
	}
	for _, ev := range tap.LibcEvents {
		b.handle(ev)
	}
	return Output{DB: db}, nil
}

// Transform implements capture.Recorder: bulk-extract the database.
// This is the expensive step (Neo4j warm-up plus per-row decoding).
func (r *Recorder) Transform(n capture.Native) (*graph.Graph, error) {
	out, ok := n.(Output)
	if !ok {
		return nil, fmt.Errorf("opus: transform: unexpected native type %T", n)
	}
	g, err := out.DB.Export()
	if err != nil {
		return nil, fmt.Errorf("opus: transform: %w", err)
	}
	return g, nil
}

type builder struct {
	r   *Recorder
	db  *neo4jsim.DB
	rng *rand.Rand
	// tsOffset shifts every recorded timestamp: real runs happen at
	// different wall-clock times, so timestamps are volatile data the
	// generalization stage must discard.
	tsOffset   int64
	procNode   map[int]neo4jsim.NodeID
	localNode  map[string]neo4jsim.NodeID // pid:fd -> local node
	globalNode map[string]neo4jsim.NodeID // path -> global name node
	versionCtr map[string]int
}

// stamp renders a per-trial-shifted timestamp.
func (b *builder) stamp(ev oskernel.LibcEvent) string {
	return strconv.FormatInt(ev.Time.UnixNano()+b.tsOffset, 10)
}

func (b *builder) volatileID() string {
	return strconv.FormatInt(int64(b.rng.Uint32()), 16)
}

// proc returns the process node, creating it with the full environment
// (the properties that make OPUS graphs big).
func (b *builder) proc(ev oskernel.LibcEvent) neo4jsim.NodeID {
	if id, ok := b.procNode[ev.PID]; ok {
		return id
	}
	props := map[string]string{
		"pid":          strconv.Itoa(ev.PID),
		"cmdline":      ev.Comm,
		"exe":          ev.Exe,
		"node_id":      b.volatileID(),
		"startup_time": b.stamp(ev),
	}
	for _, kv := range ev.Environ {
		if eq := strings.IndexByte(kv, '='); eq > 0 {
			props["env:"+kv[:eq]] = kv[eq+1:]
		}
	}
	id := b.db.CreateNode("Process", props)
	b.procNode[ev.PID] = id
	return id
}

// eventNode records the syscall itself, with its return value — present
// even for failed calls.
func (b *builder) eventNode(ev oskernel.LibcEvent) neo4jsim.NodeID {
	return b.db.CreateNode("SyscallEvent", map[string]string{
		"call":    ev.Call,
		"retval":  strconv.FormatInt(ev.Ret, 10),
		"ts":      b.stamp(ev),
		"node_id": b.volatileID(),
	})
}

// global returns the name node for a path.
func (b *builder) global(path string) neo4jsim.NodeID {
	if id, ok := b.globalNode[path]; ok {
		return id
	}
	id := b.db.CreateNode("Global", map[string]string{"name": path})
	b.globalNode[path] = id
	return id
}

// local returns the fd resource node for pid:fd.
func (b *builder) local(pid int, fd string) neo4jsim.NodeID {
	key := strconv.Itoa(pid) + ":" + fd
	if id, ok := b.localNode[key]; ok {
		return id
	}
	id := b.db.CreateNode("Local", map[string]string{"fd": fd})
	b.localNode[key] = id
	return id
}

func (b *builder) version(path string) neo4jsim.NodeID {
	if b.versionCtr == nil {
		b.versionCtr = map[string]int{}
	}
	b.versionCtr[path]++
	return b.db.CreateNode("Version", map[string]string{
		"of":      path,
		"version": strconv.Itoa(b.versionCtr[path]),
	})
}

func (b *builder) rel(from, to neo4jsim.NodeID, typ string) {
	if _, err := b.db.CreateRel(from, to, typ, map[string]string{"rel_id": b.volatileID()}); err != nil {
		panic("opus: rel: " + err.Error()) // endpoints created above
	}
}

func (b *builder) handle(ev oskernel.LibcEvent) {
	if !interposed[ev.Call] {
		return
	}
	if fdOnly[ev.Call] && !b.r.cfg.RecordReadsWrites {
		return
	}
	p := b.proc(ev)
	switch ev.Call {
	case "open", "openat", "creat":
		// Four new nodes for open: the event, the global name, the
		// local fd binding, and the initial version (Section 4.1).
		evn := b.eventNode(ev)
		g := b.global(arg(ev, 0))
		ver := b.version(arg(ev, 0))
		b.rel(evn, p, "PERFORMED_BY")
		b.rel(g, ver, "NAMED")
		if ev.Ret >= 0 {
			l := b.local(ev.PID, strconv.FormatInt(ev.Ret, 10))
			b.rel(l, p, "BOUND_TO")
			b.rel(ver, l, "VERSION_OF")
		} else {
			b.rel(evn, g, "TOUCHED")
		}
	case "close":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		l := b.local(ev.PID, arg(ev, 0))
		b.rel(evn, l, "CLOSED")
	case "read", "pread", "write", "pwrite", "fchmod", "fchown":
		// Reached only under the non-default RecordReadsWrites config.
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		l := b.local(ev.PID, arg(ev, 0))
		b.rel(evn, l, "TOUCHED")
	case "dup", "dup2", "dup3":
		// Two added nodes, not directly connected to each other, both
		// connected to the process (Section 4.1): the syscall event and
		// the new fd resource.
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		if ev.Ret >= 0 {
			l := b.local(ev.PID, strconv.FormatInt(ev.Ret, 10))
			b.rel(l, p, "BOUND_TO")
		}
	case "link", "linkat", "symlink", "symlinkat":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		gOld := b.global(arg(ev, 0))
		gNew := b.global(arg(ev, 1))
		b.rel(gNew, gOld, "ALIAS_OF")
		b.rel(evn, gNew, "TOUCHED")
	case "mknod":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		g := b.global(arg(ev, 0))
		ver := b.version(arg(ev, 0))
		b.rel(g, ver, "NAMED")
		b.rel(evn, g, "TOUCHED")
	case "rename", "renameat":
		// Figure 1(c): around a dozen nodes — the event, both names,
		// version chain on both sides, and the fd-independent binding.
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		gOld := b.global(arg(ev, 0))
		gNew := b.global(arg(ev, 1))
		vOld := b.version(arg(ev, 0))
		vNew := b.version(arg(ev, 1))
		b.rel(gOld, vOld, "NAMED")
		b.rel(gNew, vNew, "NAMED")
		b.rel(vNew, vOld, "DERIVED_FROM")
		b.rel(evn, gOld, "TOUCHED")
		b.rel(evn, gNew, "TOUCHED")
	case "truncate":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		g := b.global(arg(ev, 0))
		ver := b.version(arg(ev, 0))
		b.rel(g, ver, "NAMED")
		b.rel(evn, g, "TOUCHED")
	case "ftruncate":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		l := b.local(ev.PID, arg(ev, 0))
		b.rel(evn, l, "TOUCHED")
	case "unlink", "unlinkat":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		g := b.global(arg(ev, 0))
		b.rel(evn, g, "TOUCHED")
	case "fork", "vfork":
		// Large for OPUS (Section 4.2): a full child process node with
		// its own environment, plus rebinding of every inherited fd.
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		if ev.Ret > 0 {
			childEv := ev
			childEv.PID = int(ev.Ret)
			child := b.proc(childEv)
			b.rel(child, p, "FORKED_FROM")
			b.rel(evn, child, "CREATED")
			for key, l := range b.localNode {
				if strings.HasPrefix(key, strconv.Itoa(ev.PID)+":") {
					fd := key[strings.IndexByte(key, ':')+1:]
					childL := b.local(childEv.PID, fd)
					b.rel(childL, child, "BOUND_TO")
					b.rel(childL, l, "INHERITED_FROM")
				}
			}
		}
	case "execve":
		// Just a few nodes (Section 4.2). The interposition library
		// re-initializes in the new image, refreshing the process
		// node's command line and environment.
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		g := b.global(arg(ev, 0))
		b.rel(evn, g, "EXECUTED")
		update := map[string]string{"cmdline": ev.Comm, "exe": ev.Exe}
		for _, kv := range ev.Environ {
			if eq := strings.IndexByte(kv, '='); eq > 0 {
				update["env:"+kv[:eq]] = kv[eq+1:]
			}
		}
		b.db.SetNodeProps(p, update)
	case "exit":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
	case "kill":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
	case "chmod", "fchmodat", "chown", "fchownat":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		g := b.global(arg(ev, 0))
		ver := b.version(arg(ev, 0))
		b.rel(g, ver, "NAMED")
		b.rel(evn, g, "TOUCHED")
	case "setuid", "setreuid", "setgid", "setregid":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
	case "pipe", "pipe2":
		evn := b.eventNode(ev)
		b.rel(evn, p, "PERFORMED_BY")
		for i := 0; i < 2; i++ {
			l := b.local(ev.PID, arg(ev, i))
			b.rel(l, p, "BOUND_TO")
			b.rel(evn, l, "CREATED")
		}
	}
}

func arg(ev oskernel.LibcEvent, i int) string {
	if i < len(ev.Args) {
		return ev.Args[i]
	}
	return ""
}
