package antireplay_test

// The documentation gate as a tier-1 test: the same link check CI runs
// (internal/tools/mdlinkcheck) plus structural assertions that keep the
// docs wired together — README must link DESIGN.md, DESIGN.md must exist,
// no tracked markdown file may reference files that are not there, and
// every public name has a user.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"antireplay/internal/doccheck"
)

var docFiles = []string{"README.md", "DESIGN.md", "CHANGES.md", "PAPER.md", "ROADMAP.md"}

func TestMarkdownLinks(t *testing.T) {
	broken, err := doccheck.Check(docFiles...)
	if err != nil {
		t.Fatalf("link check: %v", err)
	}
	for _, b := range broken {
		t.Error(b)
	}
}

func TestREADMELinksDesign(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	if !strings.Contains(string(data), "DESIGN.md") {
		t.Error("README.md does not link DESIGN.md")
	}
}

func TestDesignCoversLayers(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN: %v", err)
	}
	for _, layer := range []string{"seqwin", "core", "store", "ipsec", "netsim", "rekey"} {
		if !strings.Contains(string(data), layer) {
			t.Errorf("DESIGN.md does not mention layer %q", layer)
		}
	}
}

// signatureNeeded lists the public names that nothing outside the package
// spells as antireplay.<Name> and that stay all the same, one reason a
// group. A name not used by examples/, bench/, example_test.go, README.md,
// DESIGN.md or doc.go and not listed here fails TestPublicNamesHaveUsers:
// it was exported for nobody.
var signatureNeeded = []struct{ why, names string }{
	{"result, parameter and field types of kept constructors, methods and config structs: a caller holding the value must be able to name it", `
		BackgroundSaver ChildKeys Engine EstablishResult GatewaySnapshot IKEGroup
		IKEStats InboundSnapshot Journal JournalCell JournalTail LanesOption
		LifetimeState LinkStats MetricKind MetricLabel MetricsEmit OutboundSnapshot
		Peer PoolSaver ReceiverStats RecoveryStats RekeyOrchestrator RekeyState
		RekeyStats RekeyTunnel ReplicationStats SAD SAIntrospection SPD SenderStats
		SimSaver Standby State Store StoreFactory TailRecord UDPEndpoint Window
		WindowDecision WireStats`},
	{"error sentinels stay with the subsystem that returns them: a caller matches them with errors.Is whether or not a sample does", `
		ErrAuth ErrBadKey ErrCellClaimed ErrClusterFenced ErrConfig ErrCorrupt
		ErrDown ErrDuplicateSPI ErrHardExpired ErrIKEAuthFailed ErrIKEBadMessage
		ErrIKERekeyBinding ErrKeySize ErrNoPolicy ErrNoSavedState ErrNoTransport
		ErrNotRecovered ErrPromoted ErrRekeyUnknownTunnel ErrRolloverInProgress
		ErrSaveRetriesExhausted ErrSaverClosed ErrSeqExhausted ErrShortPacket
		ErrTailLagged ErrUnknownSPI ErrWaking ErrWireClosed ErrWireNoDatagram
		ErrWireTooLarge`},
	{"enum constants stay with their type, all values or none", `
		VerdictBuffered VerdictDown VerdictDuplicate VerdictInWindow VerdictNew
		VerdictOverflow VerdictStale StateDown StateUp StateWaking LifetimeHard
		LifetimeSoft PeerDead PeerExpired PeerProbing RekeyDraining RekeySteady
		MetricCounter MetricGauge`},
	{"a safety option keeps its public twin whoever sets it", `LanesStrictRecovery`},
}

// TestPublicNamesHaveUsers is the surface rule as a test: an exported
// top-level name of the root package stays only while a sample, the
// benchmark or a document uses it, or a kept name's signature needs it.
func TestPublicNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["antireplay"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}

	var corpus strings.Builder
	for _, p := range []string{"example_test.go", "README.md", "DESIGN.md", "doc.go"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(data)
	}
	for _, dir := range []string{"examples", "bench"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || (filepath.Ext(p) != ".go" && filepath.Ext(p) != ".md") {
				return err
			}
			data, err := os.ReadFile(p)
			corpus.Write(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := make(map[string]bool)
	for _, m := range regexp.MustCompile(`antireplay\.([A-Z]\w*)`).FindAllStringSubmatch(corpus.String(), -1) {
		used[m[1]] = true
	}
	listed := make(map[string]bool)
	for _, group := range signatureNeeded {
		for _, n := range strings.Fields(group.names) {
			listed[n] = true
		}
	}

	sort.Strings(names)
	exported := 0
	for _, n := range names {
		if !ast.IsExported(n) {
			continue
		}
		exported++
		switch {
		case used[n] && listed[n]:
			t.Errorf("%s has a user: take it off signatureNeeded", n)
		case !used[n] && !listed[n]:
			t.Errorf("%s: no antireplay.%s in examples/, bench/, example_test.go, README.md, DESIGN.md or doc.go, and no kept signature is said to need it", n, n)
		}
		delete(listed, n)
	}
	for n := range listed {
		t.Errorf("signatureNeeded lists %s, which the package does not export", n)
	}
	t.Logf("%d exported names", exported)
}
