package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// program is one generated csub codebase plus everything the benchmark
// needs to run it and to check its verdicts: the entry point and its
// per-VM arguments, the transaction count, and the known answer — the
// violations each assertion site must report, derived here from the same
// inputs without TESLA.
type program struct {
	// sources renders the codebase at a given body-edit and
	// assertion-edit version; version (0, 0) is the program that runs.
	sources func(body, assert int) map[string]string
	// entry is the function each VM runs; args gives VM i's arguments.
	entry string
	args  func(vm int) []int64
	// vms is the number of VM threads sharing one monitor.
	vms int
	// boot and shutdown, when set, are run once on VM 0 before and after
	// the workers: they open and close a global bound for the whole run.
	boot, shutdown string
	// txPerRep is the transactions one run executes, across all VMs.
	txPerRep int64
	// calls is how many times each VM runs entry in one run (0 means 1).
	calls int
	// want maps assertion site (class name, "file:line") to the number of
	// violations VM i's share of one run must report there.
	want func(vm int) map[string]int
	// ret, when set, is VM i's expected return value.
	ret func(vm int) int64
}

// oddMultiplier picks a multiplier coprime with a power-of-two period, so
// i -> (a*i + b) mod period visits every residue once per period.
func oddMultiplier(r *rand.Rand, period int) int64 {
	return int64(2*r.Intn(period/2) + 1)
}

// pickDistinct returns k distinct values from [0, n) in random order.
func pickDistinct(r *rand.Rand, n, k int) []int64 {
	out := make([]int64, 0, k)
	for _, v := range r.Perm(n)[:k] {
		out = append(out, int64(v))
	}
	return out
}

// assertionLine returns the 1-based line of the first line of src that
// contains marker: a TESLA assertion's class name is "file:line".
func assertionLine(src, marker string) int {
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, marker) {
			return i + 1
		}
	}
	panic("perfbench: generator lost its assertion marker " + marker)
}

// render substitutes the edit placeholders of a template.
func render(tmpl string, body, assert int) string {
	return strings.NewReplacer("@BODY@", fmt.Sprint(body), "@ASSERT@", fmt.Sprint(assert)).Replace(tmpl)
}

// renderAll renders every template of a codebase.
func renderAll(tmpls map[string]string, body, assert int) map[string]string {
	out := make(map[string]string, len(tmpls))
	for name, t := range tmpls {
		out[name] = render(t, body, assert)
	}
	return out
}

const (
	// period is the residue cycle of the object/key streams; txPerRep of
	// every runtime workload is a multiple of it, so the known answer
	// does not depend on where a run stops inside a cycle.
	period  = 64
	modulus = 1000003
)

// syscallOps are the vnode operations a generated kernel draws its
// operations from, one file each.
var syscallOps = []string{"open", "read", "write", "stat", "lookup", "mmap", "ioctl", "close"}

// kernelProgram generates the syscall-bound "kernel" shared by oltp and
// fleet: amd64_syscall dispatches each transaction to one vnode operation
// whose file asserts, per thread and within the system call, that a MAC
// check on the same vnode came first and that an audit record follows.
// nops is the number of operations (each with two assertions, all sharing
// the system-call bound and the audit event), spin the uninstrumented work
// per transaction. The seed chooses the operations, the object stream and
// which objects skip their check or audit; the number of such objects per
// period is fixed, so every seed does the same amount of work and fails
// the same number of times.
func kernelProgram(seed int64, tx int64, nops, spin, preFails, evFails int) *program {
	r := rand.New(rand.NewSource(seed))
	ops := append([]string(nil), syscallOps...)
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	ops = ops[:nops]
	a, b := oddMultiplier(r, period), int64(r.Intn(period))
	bad := pickDistinct(r, period, preFails+evFails)
	skip := map[int64]int64{}
	for i, x := range bad {
		if i < preFails {
			skip[x] = 1
		} else {
			skip[x] = 2
		}
	}

	tmpls := map[string]string{}
	tmpls["mac_framework.c"] = ""
	for _, op := range ops {
		tmpls["mac_framework.c"] += fmt.Sprintf("int mac_vnode_check_%s(int vp) {\n\treturn 0;\n}\n\n", op)
	}
	tmpls["kern_audit.c"] = "int audit_commit(int vp) {\n\treturn 0;\n}\n"
	for i, op := range ops {
		// Edits land in the first operation's file only: a one-file
		// body edit and a one-file assertion edit.
		body, assert := "0", "0"
		if i == 0 {
			body, assert = "@BODY@", "@ASSERT@"
		}
		tmpls["vfs_"+op+".c"] = fmt.Sprintf(`int vn_%[1]s(int vp, int skip, int w) {
	int r = w;
	if (skip != 1) {
		r = r + mac_vnode_check_%[1]s(vp);
	}
	TESLA_SYSCALL_PREVIOUSLY(mac_vnode_check_%[1]s(vp) == %[3]s);
	TESLA_SYSCALL_EVENTUALLY(audit_commit(vp));
	r = (r * 3 + vp + %[2]s) %% %[4]d;
	if (skip != 2) {
		audit_commit(vp);
	}
	return r;
}
`, op, body, assert, modulus)
	}
	var dispatch strings.Builder
	dispatch.WriteString("int amd64_syscall(int op, int vp, int skip, int w) {\n")
	for i, op := range ops {
		fmt.Fprintf(&dispatch, "\tif (op == %d) {\n\t\treturn vn_%s(vp, skip, w);\n\t}\n", i, op)
	}
	dispatch.WriteString("\treturn w;\n}\n")
	tmpls["kern_syscall.c"] = dispatch.String()
	tmpls["kern_spin.c"] = fmt.Sprintf(`int spin(int n, int s) {
	while (n > 0) {
		s = (s * 7 + n) %% %d;
		n = n - 1;
	}
	return s;
}
`, modulus)

	var skips strings.Builder
	keys := make([]int64, 0, len(skip))
	for x := range skip {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, x := range keys {
		fmt.Fprintf(&skips, "\t\tif (x == %d) {\n\t\t\tskip = %d;\n\t\t}\n", x, skip[x])
	}
	work := ""
	if spin > 0 {
		work = fmt.Sprintf("\t\tacc = spin(%d, acc);\n", spin)
	}
	tmpls["kern_main.c"] = fmt.Sprintf(`int main(int n, int a, int b) {
	int i = 0;
	int acc = 0;
	while (i < n) {
		int x = (i * a + b) %% %d;
		int skip = 0;
%s%s		acc = amd64_syscall(x %% %d, x, skip, acc);
		i = i + 1;
	}
	return acc;
}
`, period, skips.String(), work, len(ops))

	// Known answer: replay the transaction stream without TESLA. A
	// skipped check fails the file's «previously» site; a skipped audit
	// fails its «eventually» site.
	sites := map[int64]string{}
	for x, kind := range skip {
		file := "vfs_" + ops[x%int64(len(ops))] + ".c"
		marker := "TESLA_SYSCALL_PREVIOUSLY"
		if kind == 2 {
			marker = "TESLA_SYSCALL_EVENTUALLY"
		}
		sites[x] = fmt.Sprintf("%s:%d", file, assertionLine(tmpls[file], marker))
	}
	want := map[string]int{}
	var acc int64
	for i := int64(0); i < tx; i++ {
		x := (i*a + b) % period
		for n := int64(spin); n > 0; n-- {
			acc = (acc*7 + n) % modulus
		}
		if site, ok := sites[x]; ok {
			want[site]++
		}
		acc = (acc*3 + x) % modulus
	}
	return &program{
		sources:  func(body, assert int) map[string]string { return renderAll(tmpls, body, assert) },
		entry:    "main",
		args:     func(int) []int64 { return []int64{tx, a, b} },
		vms:      1,
		txPerRep: tx,
		want:     func(int) map[string]int { return want },
		ret:      func(int) int64 { return acc },
	}
}

// sessionSlots is each VM's key range in the global workload: the slots
// of one VM stay live for the whole run, so both VMs together keep 2 *
// (sessionSlots - neverPrepared) instances under the default limit of 32.
const (
	sessionSlots  = 16
	neverPrepared = 2
)

// globalProgram generates the two-VM session workload: each VM commits
// sessions on its own key range of a TESLA_GLOBAL assertion whose bound
// (boot .. shutdown) is opened once for the whole run. Every commit must
// follow a prepare of the same key since that key's previous commit; the
// seed picks the slots that are never prepared, so their commits are the
// known violations.
func globalProgram(seed int64, txPerVM int64) *program {
	r := rand.New(rand.NewSource(seed))
	a, b := oddMultiplier(r, sessionSlots), int64(r.Intn(sessionSlots))
	never := pickDistinct(r, sessionSlots, neverPrepared)
	tmpls := map[string]string{
		"kern_boot.c": "int boot() {\n\treturn 0;\n}\n\nint shutdown() {\n\treturn 0;\n}\n",
		"txn_prepare.c": `int prepare(int k) {
	return @BODY@;
}
`,
		"txn_commit.c": fmt.Sprintf(`int commit(int k, int v) {
	TESLA_GLOBAL(call(boot), returnfrom(shutdown), ATLEAST(1, TSEQUENCE(prepare(k) == @ASSERT@, TESLA_ASSERTION_SITE)));
	return (v * 5 + k) %% %d;
}
`, modulus),
		"txn_worker.c": fmt.Sprintf(`int worker(int base, int n, int a, int b) {
	int i = 0;
	int acc = 0;
	while (i < n) {
		int j = (i * a + b) %% %d;
		int k = base + j;
		if (j != %d) {
			if (j != %d) {
				prepare(k);
			}
		}
		acc = commit(k, acc);
		i = i + 1;
	}
	return acc;
}
`, sessionSlots, never[0], never[1]),
	}
	site := fmt.Sprintf("txn_commit.c:%d", assertionLine(tmpls["txn_commit.c"], "TESLA_GLOBAL"))
	wants := make([]map[string]int, 2)
	rets := make([]int64, 2)
	for vm := range rets {
		base := int64(vm * sessionSlots)
		var acc int64
		wants[vm] = map[string]int{}
		for i := int64(0); i < txPerVM; i++ {
			j := (i*a + b) % sessionSlots
			if j == never[0] || j == never[1] {
				wants[vm][site]++
			}
			acc = (acc*5 + base + j) % modulus
		}
		rets[vm] = acc
	}
	return &program{
		sources: func(body, assert int) map[string]string { return renderAll(tmpls, body, assert) },
		entry:   "worker",
		args: func(vm int) []int64 {
			return []int64{int64(vm * sessionSlots), txPerVM, a, b}
		},
		vms:      2,
		boot:     "boot",
		shutdown: "shutdown",
		txPerRep: 2 * txPerVM,
		want:     func(vm int) map[string]int { return wants[vm] },
		ret:      func(vm int) int64 { return rets[vm] },
	}
}

// codebaseFiles and codebaseFns give the rebuild codebase's shape: the
// OpenSSL case study of §5.1, a library of plain C files plus a client
// whose one assertion names a call in another compilation unit.
const (
	codebaseFiles = 96
	codebaseFns   = 4
	baseSigLen    = 64
)

// codebaseProgram generates the ~100-file rebuild codebase. A body edit
// changes one library function; an assertion edit changes the signature
// length the client's assertion requires. Even assertion versions (the
// unedited program among them) make the client call with a different
// length than it asserts, so each main() call must report one violation;
// odd versions hold. That is the known answer of each edit.
func codebaseProgram(seed int64, calls int) *program {
	r := rand.New(rand.NewSource(seed))
	mult := make([]int, codebaseFiles)
	for i := range mult {
		mult[i] = 2 + r.Intn(7)
	}
	edited := r.Intn(codebaseFiles)
	// sig is a multiple of 7, so EVP_VerifyFinal returns 1.
	sig := int64(7 * (1 + r.Intn(100)))
	tmpls := map[string]string{}
	tmpls["crypto_p_verify.c"] = `int EVP_VerifyFinal(int ctx, int sig, int siglen, int key) {
	int v = sig % 7;
	if (v == 0) {
		return 1;
	}
	if (v == 1) {
		return -1;
	}
	return 0;
}
`
	for i := 0; i < codebaseFiles; i++ {
		var src strings.Builder
		for j := 0; j < codebaseFns; j++ {
			next := ""
			if j+1 < codebaseFns {
				next = fmt.Sprintf("x = x + ssl_f_%d_%d(b, x);", i, j+1)
			} else if i+1 < codebaseFiles {
				next = fmt.Sprintf("x = x + ssl_f_%d_0(b, x);", i+1)
			}
			extra := "0"
			if i == edited && j == 0 {
				extra = "@BODY@"
			}
			fmt.Fprintf(&src, `
int ssl_f_%d_%d(int a, int b) {
	int x = a * %d + b + %s;
	int i = 0;
	while (i < 4) {
		x = x + i * a;
		i++;
	}
	if (x > 1000) {
		x = x %% 997;
	} else {
		%s
	}
	return x;
}
`, i, j, mult[i], extra, next)
		}
		tmpls[fmt.Sprintf("ssl_s3_%d.c", i)] = src.String()
	}
	client := `int fetch_document(int sig) {
	int ok = EVP_VerifyFinal(1, sig, @CALLLEN@, 2);
	int body = ssl_f_0_0(sig, ok);
	TESLA_WITHIN(main, previously(
		EVP_VerifyFinal(ANY(ptr), ANY(ptr), @SIGLEN@, ANY(ptr)) == 1));
	return body;
}

int main(int sig) {
	return fetch_document(sig);
}
`
	sources := func(body, assert int) map[string]string {
		out := renderAll(tmpls, body, assert)
		call := baseSigLen + assert
		if assert%2 == 0 {
			call++
		}
		out["client.c"] = strings.NewReplacer(
			"@CALLLEN@", fmt.Sprint(call),
			"@SIGLEN@", fmt.Sprint(baseSigLen+assert)).Replace(client)
		return out
	}
	want := codebaseWant(sources(0, 0), 0)
	return &program{
		sources:  sources,
		entry:    "main",
		args:     func(int) []int64 { return []int64{sig} },
		vms:      1,
		calls:    calls,
		txPerRep: int64(calls),
		want:     func(int) map[string]int { return want },
	}
}

// codebaseWant is the known answer of one main() call of the rebuild
// codebase at an assertion-edit version: one violation of the client's
// assertion for even versions, none for odd ones.
func codebaseWant(src map[string]string, assert int) map[string]int {
	if assert%2 == 1 {
		return map[string]int{}
	}
	return map[string]int{fmt.Sprintf("client.c:%d", assertionLine(src["client.c"], "TESLA_WITHIN")): 1}
}
