// Package spade simulates SPADEv2 with the Linux Audit reporter (tag
// tc-e3 in the paper). SPADE runs in user space and synthesizes a
// provenance graph from audit-daemon records, so:
//
//   - only *successful* syscalls are reported under the default audit
//     rules (failed calls leave no trace — the Alice use case);
//   - only the baseline-monitored syscall set produces graph structure;
//     dup and credential no-ops are "state changes" SPADE tracks without
//     emitting structure (SC in Table 2); mknod, chown, pipe and tee are
//     not monitored at all (NR);
//   - audit reports at syscall exit, so a vfork child's records precede
//     the parent's vfork record and the child vertex ends up
//     disconnected (DV);
//   - the simplify flag and IORuns filter of the Bob use case are
//     modelled, including both bugs the paper reports (a background edge
//     property initialized from a stale buffer when simplify is off, and
//     the IORuns property-name mismatch that made the filter a no-op).
//
// Native output is Graphviz DOT, SPADE's Graphviz storage backend.
package spade

import (
	"context"
	"math/rand"
	"strconv"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/dot"
	"provmark/internal/graph"
	"provmark/internal/neo4jsim"
	"provmark/internal/oskernel"
)

// Config selects SPADE's relevant configuration surface.
type Config struct {
	// Simplify is SPADE's default-on flag: credential-change syscalls
	// (setresuid/setresgid) are not explicitly monitored, but observed
	// attribute *changes* are still recorded.
	Simplify bool
	// IORuns enables the run-coalescing filter for repeated reads and
	// writes.
	IORuns bool
	// Versioning creates a fresh artifact vertex per write.
	Versioning bool
	// BugRandomEdgeProperty reproduces the simplify-off bug: the
	// explicit setres* handler reuses a stale record buffer, attaching a
	// spurious disconnected edge whose property holds a random value.
	// Fixed upstream after the paper reported it; on by default to match
	// the benchmarked version.
	BugRandomEdgeProperty bool
	// BugIORunsPropertyName reproduces the filter bug: IORuns matches on
	// a property key SPADE does not emit, so coalescing never happens.
	BugIORunsPropertyName bool
	// Storage selects the output backend; zero means StorageDOT (spg).
	Storage Storage
	// DB tunes the Neo4j simulation when Storage is StorageNeo4j.
	DB neo4jsim.Options
	// Reporter selects the event source; zero means ReporterAudit.
	Reporter Reporter
}

// DefaultConfig is the paper's baseline configuration.
func DefaultConfig() Config {
	return Config{
		Simplify:              true,
		BugRandomEdgeProperty: true,
		BugIORunsPropertyName: true,
	}
}

// Recorder is the SPADE simulator.
type Recorder struct {
	cfg Config
}

var _ capture.Recorder = (*Recorder)(nil)

// New builds a SPADE recorder with the given configuration.
func New(cfg Config) *Recorder { return &Recorder{cfg: cfg} }

// Name implements capture.Recorder.
func (r *Recorder) Name() string { return "spade" }

// DefaultTrials implements capture.Recorder. SPADE output is stable
// once flushed, so two trials suffice.
func (r *Recorder) DefaultTrials() int { return 2 }

// FilterGraphs implements capture.Recorder (false for SPADE).
func (r *Recorder) FilterGraphs() bool { return false }

// Output is SPADE's native artifact: DOT text under the Graphviz
// backend, a database under the Neo4j backend.
type Output struct {
	DOT string
	DB  *neo4jsim.DB
}

// Format implements capture.Native.
func (o Output) Format() string {
	if o.DB != nil {
		return "neo4j"
	}
	return "dot"
}

// Record implements capture.Recorder: run the benchmark in a fresh
// kernel with an audit tap, then synthesize the DOT output.
func (r *Recorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	tap, err := capture.RunTrial(ctx, "spade", prog, v)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(trial)*7919 + int64(len(prog.Name))*104729 + int64(v)))
	var g *graph.Graph
	if r.cfg.Reporter == ReporterCamFlow {
		g = r.buildFromLSM(tap.LSMEvents, rng)
	} else {
		g = r.build(tap.AuditEvents, rng)
	}
	if r.cfg.IORuns {
		g = r.applyIORuns(g)
	}
	if r.cfg.Storage == StorageNeo4j {
		db, err := storeToNeo4j(g, r.cfg.DB)
		if err != nil {
			return nil, err
		}
		return Output{DB: db}, nil
	}
	return Output{DOT: dot.WriteString(g, "spade_"+prog.Name)}, nil
}

// Transform implements capture.Recorder: parse the DOT text or extract
// the Neo4j store, depending on the configured backend.
func (r *Recorder) Transform(n capture.Native) (*graph.Graph, error) {
	return transformNative(n)
}

// parseDOT is the Graphviz-side transformation.
func parseDOT(text string) (*graph.Graph, error) {
	return dot.ParseString(text)
}

// monitored is the baseline audit rule set (auditctl rules SPADE
// installs by default). Conspicuously absent: dup*, mknod*, chown
// family, pipe*, tee, setres* (with simplify on).
var monitored = map[string]bool{
	"creat": true, "open": true, "openat": true, "close": true,
	"link": true, "linkat": true, "symlink": true, "symlinkat": true,
	"read": true, "pread": true, "write": true, "pwrite": true,
	"rename": true, "renameat": true, "truncate": true, "ftruncate": true,
	"unlink": true, "unlinkat": true,
	// kill is absent: SPADE's default audit rules do not monitor it,
	// which (with the abnormal-termination asymmetry) makes the kill
	// benchmark empty (LP in Table 2).
	"clone": true, "execve": true, "fork": true, "vfork": true,
	"exit_group": true, "mmap": true,
	"chmod": true, "fchmod": true, "fchmodat": true,
	"setuid": true, "setreuid": true, "setgid": true, "setregid": true,
}

// builder accumulates the SPADE graph from an audit stream.
type builder struct {
	r   *Recorder
	g   *graph.Graph
	rng *rand.Rand
	// procVertex maps pid -> current process vertex (SPADE creates a
	// fresh vertex per execve or credential change: a "process state").
	procVertex map[int]graph.ElemID
	artifact   map[string]graph.ElemID // path -> artifact vertex
	version    map[string]int          // path -> artifact version (Versioning)
}

func (r *Recorder) build(events []oskernel.AuditEvent, rng *rand.Rand) *graph.Graph {
	b := &builder{
		r:          r,
		g:          graph.New(),
		rng:        rng,
		procVertex: make(map[int]graph.ElemID),
		artifact:   make(map[string]graph.ElemID),
		version:    make(map[string]int),
	}
	for _, ev := range events {
		b.handle(ev)
	}
	return b.g
}

func (b *builder) auditID() string {
	return strconv.Itoa(100000 + b.rng.Intn(900000))
}

func (b *builder) timestamp() string {
	return strconv.FormatInt(1569326400+int64(b.rng.Intn(100000)), 10) + "." + strconv.Itoa(b.rng.Intn(1000))
}

// proc returns (creating if needed) the current vertex for a pid.
func (b *builder) proc(ev oskernel.AuditEvent) graph.ElemID {
	if id, ok := b.procVertex[ev.PID]; ok {
		return id
	}
	id := b.g.AddNode("Process", graph.Properties{
		"pid":        strconv.Itoa(ev.PID),
		"ppid":       strconv.Itoa(ev.PPID),
		"name":       ev.Comm,
		"exe":        ev.Exe,
		"uid":        strconv.Itoa(ev.UID),
		"gid":        strconv.Itoa(ev.GID),
		"start time": b.timestamp(),
	})
	b.procVertex[ev.PID] = id
	return id
}

// artifactFor returns (creating if needed) the artifact vertex for a
// path, respecting the versioning option.
func (b *builder) artifactFor(path string, inode uint64, bumpVersion bool) graph.ElemID {
	key := path
	if b.r.cfg.Versioning {
		if bumpVersion {
			b.version[path]++
		}
		key = path + "#" + strconv.Itoa(b.version[path])
	}
	if id, ok := b.artifact[key]; ok {
		return id
	}
	props := graph.Properties{
		"path":    path,
		"inode":   strconv.FormatUint(inode, 10),
		"subtype": "file",
		"epoch":   strconv.Itoa(b.rng.Intn(1000)),
	}
	if b.r.cfg.Versioning {
		props["version"] = strconv.Itoa(b.version[path])
	}
	id := b.g.AddNode("Artifact", props)
	b.artifact[key] = id
	return id
}

func (b *builder) edge(src, tgt graph.ElemID, label, operation string, extra graph.Properties) {
	props := graph.Properties{
		"operation": operation,
		"audit_id":  b.auditID(),
		"time":      b.timestamp(),
	}
	for k, v := range extra {
		props[k] = v
	}
	if _, err := b.g.AddEdge(src, tgt, label, props); err != nil {
		panic("spade: edge: " + err.Error()) // vertices created by callers
	}
}

func (b *builder) handle(ev oskernel.AuditEvent) {
	if !ev.Success {
		return // default audit rules: exit>=0 only
	}
	name := ev.Syscall
	switch {
	case monitored[name]:
		// fall through to the handlers below
	case (name == "setresuid" || name == "setresgid") && !b.r.cfg.Simplify:
		// simplify off: explicitly monitored
	case name == "setresuid" || name == "setresgid":
		// simplify on: only observed attribute changes are recorded
		if !hasChange(ev.Args) {
			return
		}
	default:
		return // not monitored (dup*, mknod*, chown*, pipe*, tee, ...)
	}

	switch name {
	case "open", "openat", "creat":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), name == "creat")
		b.edge(p, a, "Used", name, nil)
	case "close":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), false)
		b.edge(p, a, "Used", "close", nil)
	case "read", "pread":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), false)
		b.edge(p, a, "Used", name, graph.Properties{"size": args(ev, 1)})
	case "write", "pwrite":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), true)
		b.edge(a, p, "WasGeneratedBy", name, graph.Properties{"size": args(ev, 1)})
	case "mmap":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), false)
		b.edge(p, a, "Used", "mmap", nil)
	case "link", "linkat", "symlink", "symlinkat":
		p := b.proc(ev)
		oldA := b.artifactFor(args(ev, 0), inodeOf(ev), false)
		newA := b.artifactFor(args(ev, 1), inodeOf(ev), false)
		b.edge(newA, oldA, "WasDerivedFrom", name, nil)
		b.edge(newA, p, "WasGeneratedBy", name, nil)
	case "rename", "renameat":
		// Figure 1(a): two artifact vertices (old and new name) linked
		// to each other and to the renaming process.
		p := b.proc(ev)
		oldA := b.artifactFor(args(ev, 0), inodeOf(ev), false)
		newA := b.artifactFor(args(ev, 1), inodeOf(ev), true)
		b.edge(newA, oldA, "WasDerivedFrom", name, nil)
		b.edge(p, oldA, "Used", name, nil)
		b.edge(newA, p, "WasGeneratedBy", name, nil)
	case "truncate", "ftruncate":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), true)
		b.edge(a, p, "WasGeneratedBy", name, graph.Properties{"size": args(ev, 1)})
	case "unlink", "unlinkat":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), false)
		b.edge(p, a, "Used", name, nil)
	case "fork", "vfork", "clone":
		parent := b.proc(ev)
		childPID := int(ev.Exit)
		if _, exists := b.procVertex[childPID]; exists {
			// The child was already seen executing its own syscalls:
			// audit reported the vfork late (parent suspended), so SPADE
			// cannot connect parent and child (DV in Table 2).
			return
		}
		child := b.g.AddNode("Process", graph.Properties{
			"pid":        strconv.Itoa(childPID),
			"ppid":       strconv.Itoa(ev.PID),
			"name":       ev.Comm,
			"exe":        ev.Exe,
			"uid":        strconv.Itoa(ev.UID),
			"gid":        strconv.Itoa(ev.GID),
			"start time": b.timestamp(),
		})
		b.procVertex[childPID] = child
		b.edge(child, parent, "WasTriggeredBy", name, nil)
	case "execve":
		old := b.proc(ev)
		fresh := b.g.AddNode("Process", graph.Properties{
			"pid":         strconv.Itoa(ev.PID),
			"ppid":        strconv.Itoa(ev.PPID),
			"name":        ev.Comm,
			"exe":         args(ev, 0),
			"commandline": joinArgs(ev),
			"uid":         strconv.Itoa(ev.UID),
			"gid":         strconv.Itoa(ev.GID),
			"start time":  b.timestamp(),
		})
		b.procVertex[ev.PID] = fresh
		b.edge(fresh, old, "WasTriggeredBy", "execve", nil)
		if path := pathOf(ev); path != "" {
			exe := b.artifactFor(path, inodeOf(ev), false)
			b.edge(fresh, exe, "Used", "load", nil)
		}
	case "exit_group":
		b.proc(ev) // ensure the exiting process has a vertex
	case "chmod", "fchmod", "fchmodat":
		p := b.proc(ev)
		a := b.artifactFor(pathOf(ev), inodeOf(ev), true)
		b.edge(a, p, "WasGeneratedBy", name, graph.Properties{"mode": args(ev, 1)})
	case "setuid", "setreuid", "setgid", "setregid", "setresuid", "setresgid":
		old := b.proc(ev)
		fresh := b.g.AddNode("Process", graph.Properties{
			"pid":        strconv.Itoa(ev.PID),
			"ppid":       strconv.Itoa(ev.PPID),
			"name":       ev.Comm,
			"exe":        ev.Exe,
			"uid":        strconv.Itoa(ev.EUID),
			"gid":        strconv.Itoa(ev.EGID),
			"start time": b.timestamp(),
		})
		b.procVertex[ev.PID] = fresh
		b.edge(fresh, old, "WasTriggeredBy", name, nil)
		if (name == "setresuid" || name == "setresgid") && !b.r.cfg.Simplify && b.r.cfg.BugRandomEdgeProperty {
			// Bug (Bob's use case): the explicit setres* handler reuses a
			// stale record buffer, emitting a spurious disconnected edge
			// whose property carries a random (uninitialized) value.
			n1 := b.g.AddNode("Artifact", graph.Properties{"subtype": "unknown"})
			n2 := b.g.AddNode("Artifact", graph.Properties{"subtype": "unknown"})
			b.edge(n1, n2, "WasDerivedFrom", "update", graph.Properties{
				"flags": strconv.Itoa(b.rng.Int()),
			})
		}
	}
}

// applyIORuns coalesces runs of identical read/write edges between the
// same endpoints into a single edge with a count property. With the
// property-name bug the filter queries key "iooperation", which SPADE
// never emits, so nothing matches and the graph is unchanged — exactly
// the surprising no-op Bob observed.
func (r *Recorder) applyIORuns(g *graph.Graph) *graph.Graph {
	opKey := "operation"
	if r.cfg.BugIORunsPropertyName {
		opKey = "iooperation"
	}
	type runKey struct {
		src, tgt graph.ElemID
		label    string
		op       string
	}
	first := make(map[runKey]graph.ElemID)
	count := make(map[runKey]int)
	for _, e := range g.Edges() {
		op := e.Props[opKey]
		if op != "read" && op != "write" && op != "pread" && op != "pwrite" {
			continue
		}
		k := runKey{e.Src, e.Tgt, e.Label, op}
		count[k]++
		if count[k] == 1 {
			first[k] = e.ID
		} else {
			g.RemoveEdge(e.ID)
		}
	}
	for k, n := range count {
		if n > 1 {
			if err := g.SetProp(first[k], "count", strconv.Itoa(n)); err != nil {
				panic("spade: ioruns: " + err.Error())
			}
		}
	}
	return g
}

func pathOf(ev oskernel.AuditEvent) string {
	if len(ev.Paths) > 0 {
		return ev.Paths[0].Name
	}
	if len(ev.Args) > 0 {
		return ev.Args[0]
	}
	return ""
}

func inodeOf(ev oskernel.AuditEvent) uint64 {
	if len(ev.Paths) > 0 {
		return ev.Paths[0].Inode
	}
	return 0
}

func args(ev oskernel.AuditEvent, i int) string {
	if i < len(ev.Args) {
		return ev.Args[i]
	}
	return ""
}

func joinArgs(ev oskernel.AuditEvent) string {
	out := ""
	for i, a := range ev.Args {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
}

func hasChange(argList []string) bool {
	for _, a := range argList {
		if a == "changed=1" {
			return true
		}
	}
	return false
}

func atoiSafe(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}
