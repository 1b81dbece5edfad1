// Range-scan example: the B+-tree extension (paper §VII future work) serves
// verified, ordered range queries — here a small time-series workload where
// a dashboard reads the latest window of samples.
package main

import (
	"fmt"
	"log"

	"github.com/ariakv/aria"
)

func main() {
	st, err := aria.Open(aria.Options{
		Scheme:       aria.AriaBPTree,
		ExpectedKeys: 50000,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest samples keyed by (sensor, timestamp); lexicographic order
	// keeps each sensor's samples contiguous.
	for sensor := 0; sensor < 4; sensor++ {
		for ts := 0; ts < 1000; ts++ {
			k := fmt.Sprintf("sensor-%d/t-%06d", sensor, ts)
			v := fmt.Sprintf("%.2f", 20.0+float64((sensor*37+ts*13)%90)/10)
			if err := st.Put([]byte(k), []byte(v)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("ingested 4000 samples across 4 sensors")

	// Every sample read by a scan has passed the full Merkle+MAC
	// verification path, so the dashboard cannot be fed stale or forged
	// readings.
	fmt.Println("\nlast 5 samples of sensor-2:")
	start := []byte("sensor-2/t-000995")
	end := []byte("sensor-2/t-999999")
	if err := st.Scan(start, end, func(k, v []byte) bool {
		fmt.Printf("  %s = %s\n", k, v)
		return true
	}); err != nil {
		log.Fatal(err)
	}

	count := 0
	if err := st.Scan([]byte("sensor-1/"), []byte("sensor-2/"), func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsensor-1 holds %d samples (full verified scan)\n", count)

	if err := st.VerifyIntegrity(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("integrity audit clean")
}
