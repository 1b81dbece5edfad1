// Command ariactl is an interactive shell over the aria API: open a
// store of any scheme (or connect to a running aria-server), issue
// put/get/del, inspect stats, and run the integrity audit — including
// after hand-corrupting untrusted memory with the attack commands, which
// demonstrates detection end to end.
//
// Usage:
//
//	ariactl [-scheme aria-h] [-keys 100000] [-epc 91]
//	ariactl -connect host:7970
//	ariactl -connect host:7970 -ccache
//	ariactl -connect host:7970 -watch [-interval 1s]
//
// -connect attaches to a live aria-server over the kvnet protocol
// instead of opening an in-process store; every command then operates on
// the remote store. -ccache additionally fronts the connection with the
// coherent client cache (package ccache): hot reads are served locally,
// kept fresh by the server's invalidation stream (the server must run
// with -inval-push). -watch skips the shell and streams a one-line
// operations view (op rates, cache hit ratio, paging, replication lag
// and generation, health — plus cc-hit% under -ccache) every -interval
// until interrupted — the terminal companion to the /metrics endpoint
// (see docs/OPERATIONS.md).
//
// Commands:
//
//	put <key> <value>     store a pair
//	get <key>             fetch a value
//	del <key>             delete a key
//	fill <n>              bulk-load n deterministic pairs
//	scan [start] [end]    ordered range scan (tree schemes)
//	stats                 operation/enclave counters
//	stats watch [sec]     live delta view, one line per second
//	checkpoint            sealed snapshot + WAL truncation (needs -data-dir / durable server)
//	verify                full offline integrity audit (local only)
//	help, quit
//
// -data-dir DIR opens the local store durable (sealed WAL + snapshots
// under DIR), recovering any committed state already there; checkpoint
// then works locally. Against -connect, checkpoint asks the server.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ariakv/aria"
	"github.com/ariakv/aria/ccache"
	"github.com/ariakv/aria/kvnet"
)

var schemes = map[string]aria.Scheme{
	"aria-h":      aria.AriaHash,
	"aria-bp":     aria.AriaBPTree,
	"aria-t":      aria.AriaTree,
	"nocache-h":   aria.NoCacheHash,
	"nocache-t":   aria.NoCacheTree,
	"shieldstore": aria.ShieldStoreScheme,
	"baseline-h":  aria.BaselineHash,
	"baseline-t":  aria.BaselineTree,
}

// backend abstracts over an in-process store and a kvnet connection so
// the shell commands work identically in both modes.
type backend interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	Scan(start, end []byte, fn func(key, value []byte) bool) error
	Stats() (aria.Stats, error)
	Checkpoint() error
	Verify() error
}

// localBackend serves commands from an in-process store.
type localBackend struct{ st aria.Store }

func (b *localBackend) Put(k, v []byte) error        { return b.st.Put(k, v) }
func (b *localBackend) Get(k []byte) ([]byte, error) { return b.st.Get(k) }
func (b *localBackend) Delete(k []byte) error        { return b.st.Delete(k) }
func (b *localBackend) Stats() (aria.Stats, error)   { return b.st.Stats(), nil }
func (b *localBackend) Verify() error                { return b.st.VerifyIntegrity() }
func (b *localBackend) Checkpoint() error            { return b.st.Checkpoint() }
func (b *localBackend) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	return b.st.Scan(start, end, fn)
}

// remoteBackend serves commands from an aria-server over kvnet.
type remoteBackend struct{ cl *kvnet.Client }

func (b *remoteBackend) Put(k, v []byte) error        { return b.cl.Put(k, v) }
func (b *remoteBackend) Get(k []byte) ([]byte, error) { return b.cl.Get(k) }
func (b *remoteBackend) Delete(k []byte) error        { return b.cl.Delete(k) }
func (b *remoteBackend) Stats() (aria.Stats, error)   { return b.cl.Stats() }
func (b *remoteBackend) Checkpoint() error            { return b.cl.Checkpoint() }
func (b *remoteBackend) Verify() error {
	return fmt.Errorf("verify runs in-process only: the audit walks enclave memory (use the server's /healthz or aria_health metric)")
}
func (b *remoteBackend) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	return b.cl.Scan(start, end, 0, fn)
}

// ccacheBackend fronts a remote server with the coherent client cache
// (-ccache): reads of hot keys are served locally with zero network
// hops, kept fresh by the server's invalidation stream. Everything the
// cache does not mediate goes through the underlying client.
type ccacheBackend struct{ c *ccache.Cache }

func (b *ccacheBackend) Put(k, v []byte) error        { return b.c.Put(k, v) }
func (b *ccacheBackend) Get(k []byte) ([]byte, error) { return b.c.Get(k) }
func (b *ccacheBackend) Delete(k []byte) error        { return b.c.Delete(k) }
func (b *ccacheBackend) Stats() (aria.Stats, error)   { return b.c.Client().Stats() }
func (b *ccacheBackend) Checkpoint() error            { return b.c.Client().Checkpoint() }
func (b *ccacheBackend) Verify() error {
	return fmt.Errorf("verify runs in-process only: the audit walks enclave memory (use the server's /healthz or aria_health metric)")
}
func (b *ccacheBackend) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	return b.c.Client().Scan(start, end, 0, fn)
}
func (b *ccacheBackend) CacheStats() ccache.Stats { return b.c.Stats() }

// cacheStatser is implemented by backends that carry a client cache;
// the watch view adds the cc-hit% column when it is present.
type cacheStatser interface{ CacheStats() ccache.Stats }

func main() {
	var (
		schemeName = flag.String("scheme", "aria-h", "store scheme (aria-h, aria-t, nocache-h, nocache-t, shieldstore, baseline-h, baseline-t)")
		keys       = flag.Int("keys", 100000, "expected key count")
		epcMB      = flag.Int("epc", 91, "simulated EPC size in MB")
		connect    = flag.String("connect", "", "attach to a running aria-server at this address instead of opening a store")
		watch      = flag.Bool("watch", false, "stream the live stats view instead of the shell (Ctrl-C to stop)")
		interval   = flag.Duration("interval", time.Second, "refresh interval for -watch")
		dataDir    = flag.String("data-dir", "", "open the local store durable: sealed WAL + snapshots under this directory")
		useCcache  = flag.Bool("ccache", false, "front -connect with the coherent client cache (server needs -inval-push); adds the cc-hit% watch column")
	)
	flag.Parse()

	var be backend
	if *useCcache && *connect == "" {
		fmt.Fprintln(os.Stderr, "-ccache requires -connect: the cache fronts a remote server")
		os.Exit(2)
	}
	if *connect != "" && *useCcache {
		c, err := ccache.Open(*connect, ccache.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer c.Close()
		be = &ccacheBackend{c: c}
		fmt.Printf("connected to aria-server at %s (coherent client cache on). Type 'help'.\n", *connect)
	} else if *connect != "" {
		cl, err := kvnet.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cl.Close()
		be = &remoteBackend{cl: cl}
		fmt.Printf("connected to aria-server at %s. Type 'help'.\n", *connect)
	} else {
		scheme, ok := schemes[*schemeName]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeName)
			os.Exit(2)
		}
		st, err := aria.Open(aria.Options{
			Scheme:       scheme,
			EPCBytes:     *epcMB << 20,
			ExpectedKeys: *keys,
			DataDir:      *dataDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
		if rec := st.Stats().RecoveredRecords; rec > 0 {
			fmt.Printf("recovered %d records from %s\n", rec, *dataDir)
		}
		be = &localBackend{st: st}
		fmt.Printf("aria %s store ready (EPC %d MB, expecting %d keys). Type 'help'.\n",
			scheme, *epcMB, *keys)
	}

	if *watch {
		watchStats(os.Stdout, be, *interval, 0)
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			report(be.Put([]byte(fields[1]), []byte(fields[2])))
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, err := be.Get([]byte(fields[1]))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%q\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			report(be.Delete([]byte(fields[1])))
		case "fill":
			n := 10000
			if len(fields) > 1 {
				fmt.Sscanf(fields[1], "%d", &n)
			}
			for i := 0; i < n; i++ {
				if err := be.Put([]byte(fmt.Sprintf("fill-%08d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
					fmt.Println("error:", err)
					break
				}
			}
			fmt.Printf("loaded %d pairs\n", n)
		case "scan":
			var start, end []byte
			if len(fields) > 1 {
				start = []byte(fields[1])
			}
			if len(fields) > 2 {
				end = []byte(fields[2])
			}
			n := 0
			err := be.Scan(start, end, func(k, v []byte) bool {
				fmt.Printf("%s = %q\n", k, v)
				n++
				return n < 100
			})
			if err != nil {
				fmt.Println("error:", err)
			} else if n == 100 {
				fmt.Println("... (truncated at 100 pairs)")
			}
		case "stats":
			if len(fields) > 1 && fields[1] == "watch" {
				secs := 10
				if len(fields) > 2 {
					if n, err := strconv.Atoi(fields[2]); err == nil && n > 0 {
						secs = n
					}
				}
				watchStats(os.Stdout, be, time.Second, secs)
				continue
			}
			s, err := be.Stats()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("keys=%d gets=%d puts=%d dels=%d health=%s\n", s.Keys, s.Gets, s.Puts, s.Deletes, s.Health())
			fmt.Printf("sim-cycles=%d (%.3fs @3.6GHz) pageswaps=%d ocalls=%d macs=%d\n",
				s.SimCycles, s.SimSeconds, s.PageSwaps, s.Ocalls, s.MACs)
			fmt.Printf("cache: hits=%d misses=%d ratio=%.3f stopswap=%v pinned-levels=%d\n",
				s.CacheHits, s.CacheMisses, s.CacheHitRatio, s.StopSwap, s.PinnedLevels)
			if s.WALAppends > 0 || s.Checkpoints > 0 || s.RecoveredRecords > 0 {
				fmt.Printf("wal: appends=%d records=%d bytes=%d fsyncs=%d ckpts=%d recovered=%d\n",
					s.WALAppends, s.WALRecords, s.WALBytes, s.WALFsyncs, s.Checkpoints, s.RecoveredRecords)
			}
			if s.CompRawBytes > 0 || s.Segments > 0 || s.ColdKeys > 0 {
				ratio := 1.0
				if s.CompRawBytes > 0 {
					ratio = float64(s.CompBytes) / float64(s.CompRawBytes)
				}
				fmt.Printf("cold: keys=%d bytes=%d ratio=%.2f dict=%d hits=%d misses=%d segs=%d seg-bytes=%d compactions=%d\n",
					s.ColdKeys, s.ColdBytes, ratio, s.CompDictBytes, s.ColdHits, s.ColdMisses,
					s.Segments, s.SegmentBytes, s.Compactions)
			}
			if s.ReplRole != "" {
				fmt.Printf("repl: role=%s generation=%d lag=%d\n", s.ReplRole, s.ReplGeneration, s.ReplLag)
			}
			if cs, ok := be.(cacheStatser); ok {
				cc := cs.CacheStats()
				fmt.Printf("ccache: armed=%v hits=%d misses=%d bypass=%d ratio=%.3f entries=%d invals=%d cold-drops=%d\n",
					cc.Armed, cc.Hits, cc.Misses, cc.Bypass, cc.HitRatio(), cc.Entries, cc.Invalidations, cc.ColdDrops)
			}
		case "checkpoint":
			if err := be.Checkpoint(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("checkpoint written: sealed state (snapshot or segment set) on disk, obsolete WAL segments removed")
			}
		case "verify":
			if err := be.Verify(); err != nil {
				fmt.Println("AUDIT FAILED:", err)
			} else {
				fmt.Println("audit clean: confidentiality and integrity intact")
			}
		case "help":
			fmt.Println("put <k> <v> | get <k> | del <k> | scan [start] [end] | fill <n> | stats [watch [sec]] | checkpoint | verify | quit")
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}

// watchHeader is the column header of the live stats view. The first
// block mirrors the in-memory operations view; the wsync/s and ckpts
// columns surface the durability families (zero on non-durable stores);
// lag and gen surface the replication overlay (lag is a replica's apply
// gap in sequence numbers, gen the sealed generation prefixed with the
// role initial — p3, r3, f3 — or "-" when replication is inactive);
// coldkb/ratio/segs surface the compressed cold tier (resident
// compressed KiB, compressed/raw ratio, live segment count — all "-"
// until Options.ColdCompress produces state).
const watchHeader = "    gets/s    puts/s    dels/s    hit%   swaps/s   wsync/s  ckpts     keys     lag  gen  coldkb  ratio  segs   health"

// watchHeaderCC is the header when the backend fronts the server with
// the coherent client cache: cc-hit% (local cache hit ratio over the
// sample window; "cold" while the invalidation stream is down) slots
// in after gen.
const watchHeaderCC = "    gets/s    puts/s    dels/s    hit%   swaps/s   wsync/s  ckpts     keys     lag  gen  cc-hit%  coldkb  ratio  segs   health"

// watchStats prints one delta line per interval: operation rates since
// the previous sample, cache behaviour, paging, WAL fsync rate,
// checkpoints taken, and health. seconds 0 streams until the process is
// interrupted. A backend carrying a client cache gets the cc-hit%
// column as well.
func watchStats(w io.Writer, be backend, interval time.Duration, seconds int) {
	prev, err := be.Stats()
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	cs, hasCC := be.(cacheStatser)
	var prevCC ccache.Stats
	if hasCC {
		prevCC = cs.CacheStats()
		fmt.Fprintln(w, watchHeaderCC)
	} else {
		fmt.Fprintln(w, watchHeader)
	}
	t0 := time.Now()
	for i := 0; seconds == 0 || i < seconds; i++ {
		time.Sleep(interval)
		cur, err := be.Stats()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return
		}
		extra := ""
		if hasCC {
			curCC := cs.CacheStats()
			extra = ccCell(prevCC, curCC)
			prevCC = curCC
		}
		fmt.Fprint(w, watchLineExtra(prev, cur, extra, interval, time.Since(t0)))
		prev = cur
	}
}

// watchLine formats one delta row of the watch view from two samples.
func watchLine(prev, cur aria.Stats, interval, elapsed time.Duration) string {
	return watchLineExtra(prev, cur, "", interval, elapsed)
}

// watchLineExtra is watchLine with an optional pre-formatted column
// block inserted between gen and health (the cc-hit% cell).
func watchLineExtra(prev, cur aria.Stats, extra string, interval, elapsed time.Duration) string {
	dt := interval.Seconds()
	rate := func(now, before uint64) float64 { return float64(now-before) / dt }
	hit := cur.CacheHitRatio * 100
	if d := (cur.CacheHits + cur.CacheMisses) - (prev.CacheHits + prev.CacheMisses); d > 0 {
		hit = 100 * float64(cur.CacheHits-prev.CacheHits) / float64(d)
	}
	return fmt.Sprintf("%10.0f%10.0f%10.0f%8.1f%10.0f%10.0f%7d%9d%8d%5s%s%s   %s  [%s]\n",
		rate(cur.Gets, prev.Gets), rate(cur.Puts, prev.Puts), rate(cur.Deletes, prev.Deletes),
		hit, rate(cur.PageSwaps, prev.PageSwaps), rate(cur.WALFsyncs, prev.WALFsyncs),
		cur.Checkpoints, cur.Keys, cur.ReplLag, genCell(cur), extra, coldCells(cur),
		cur.Health(), elapsed.Truncate(time.Second))
}

// coldCells renders the cold-tier columns: resident compressed KiB,
// compressed/raw ratio over everything compressed so far, and the live
// segment count. All "-" until the cold tier has produced state, so a
// store running without Options.ColdCompress shows an inert block
// rather than misleading zeroes.
func coldCells(s aria.Stats) string {
	if s.CompRawBytes == 0 && s.Segments == 0 && s.ColdKeys == 0 {
		return fmt.Sprintf("%8s%7s%6s", "-", "-", "-")
	}
	ratio := "-"
	if s.CompRawBytes > 0 {
		ratio = fmt.Sprintf("%.2f", float64(s.CompBytes)/float64(s.CompRawBytes))
	}
	return fmt.Sprintf("%8d%7s%6d", s.ColdBytes>>10, ratio, s.Segments)
}

// ccCell renders the cc-hit% column: the client cache's hit ratio over
// the sample window ("cold" while the invalidation stream is down and
// every read bypasses the cache).
func ccCell(prev, cur ccache.Stats) string {
	if !cur.Armed {
		return fmt.Sprintf("%9s", "cold")
	}
	ratio := cur.HitRatio() * 100
	if d := (cur.Hits + cur.Misses) - (prev.Hits + prev.Misses); d > 0 {
		ratio = 100 * float64(cur.Hits-prev.Hits) / float64(d)
	}
	return fmt.Sprintf("%8.1f%%", ratio)
}

// genCell renders the replication generation column: the role initial
// plus the sealed generation (p3 = primary gen 3, r3 = replica, f3 =
// fenced), or "-" when the store is not replicated.
func genCell(s aria.Stats) string {
	if s.ReplRole == "" {
		return "-"
	}
	return fmt.Sprintf("%s%d", s.ReplRole[:1], s.ReplGeneration)
}

func report(err error) {
	if err != nil {
		fmt.Println("error:", err)
	} else {
		fmt.Println("ok")
	}
}
