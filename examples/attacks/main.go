// Attack demo: act as the malicious host from the paper's threat model.
// Using the fault-injection interface, corrupt untrusted memory underneath
// a live Aria store — random tampering and a full replay of stale state —
// and show that every manipulation is detected rather than served.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"github.com/ariakv/aria"
)

func main() {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaHash,
		ExpectedKeys: 10000,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := st.Put(acct(i), []byte(fmt.Sprintf("balance=%06d", i*10))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("loaded 2000 accounts; clean audit:", audit(st))

	// --- Attack 1: random bit flips across untrusted memory. ------------
	// Everything outside the enclave is fair game: entries, Merkle
	// nodes, chain pointers, allocator free lists.
	rng := rand.New(rand.NewSource(1))
	flips := 0
	for i := 0; i < 200; i++ {
		if st.FlipUntrustedByte(rng.Intn(st.UntrustedSize()), 0xFF) {
			flips++
		}
	}
	fmt.Printf("\n[attack 1] flipped %d random untrusted bytes\n", flips)
	if err := st.VerifyIntegrity(); errors.Is(err, aria.ErrIntegrity) {
		fmt.Println("          audit detected the tampering:", short(err))
	} else {
		log.Fatalf("          TAMPERING NOT DETECTED (audit err = %v)", err)
	}

	// --- Attack 2: replay stale state wholesale. -------------------------
	// A fresh store this time: snapshot all untrusted memory, let the
	// store update a balance, then restore the snapshot — the classic
	// replay a MAC alone cannot catch.
	st2, err := aria.Open(aria.Options{Scheme: aria.AriaHash, ExpectedKeys: 1000})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = st2.Put(acct(i), []byte(fmt.Sprintf("balance=%06d", 100)))
	}
	snap := st2.SnapshotUntrusted()
	if err := st2.Put(acct(7), []byte("balance=000000")); err != nil { // spend it all
		log.Fatal(err)
	}
	st2.RestoreUntrusted(snap) // host replays the old, richer state
	fmt.Println("\n[attack 2] replayed a pre-spend snapshot of untrusted memory")
	_, err = st2.Get(acct(7))
	if errors.Is(err, aria.ErrIntegrity) {
		fmt.Println("          stale balance rejected:", short(err))
	} else {
		log.Fatalf("          REPLAY NOT DETECTED (get err = %v)", err)
	}

	fmt.Println("\nall attacks detected")
}

func acct(i int) []byte { return []byte(fmt.Sprintf("acct-%05d", i)) }

func audit(st aria.Store) string {
	if err := st.VerifyIntegrity(); err != nil {
		return "FAILED: " + err.Error()
	}
	return "PASS"
}

func short(err error) string {
	s := err.Error()
	if len(s) > 90 {
		return s[:90] + "..."
	}
	return s
}
