package wire

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// clientMetrics is one client's share of the wire counters. Everything is
// atomic: requests arrive on arbitrary goroutines.
type clientMetrics struct {
	requests   atomic.Int64
	dials      atomic.Int64 // connections established
	reused     atomic.Int64 // requests served off a pooled connection
	batches    atomic.Int64
	batchItems atomic.Int64
	batchSize  obs.Hist

	retryMu sync.Mutex
	retries map[string]int64 // cause → count ("429", "503", "transport")
}

func (m *clientMetrics) noteRetry(cause string) {
	m.retryMu.Lock()
	if m.retries == nil {
		m.retries = make(map[string]int64)
	}
	m.retries[cause]++
	m.retryMu.Unlock()
}

func (m *clientMetrics) retrySnapshot() map[string]int64 {
	m.retryMu.Lock()
	defer m.retryMu.Unlock()
	out := make(map[string]int64, len(m.retries))
	for k, v := range m.retries {
		out[k] = v
	}
	return out
}

// Stats is one client's point-in-time snapshot, served under the
// "spocus_wire" expvar (one row per live client).
type Stats struct {
	Name       string           `json:"name"`
	Requests   int64            `json:"requests_total"`
	Dials      int64            `json:"conns_dialed_total"`
	Reused     int64            `json:"conns_reused_total"`
	Retries    map[string]int64 `json:"retries_by_cause,omitempty"`
	Batches    int64            `json:"batches_total"`
	BatchItems int64            `json:"batch_items_total"`
	BatchP50   int64            `json:"batch_size_p50"`
	BatchP90   int64            `json:"batch_size_p90"`
	BatchMax   int64            `json:"batch_size_max"`
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Name:       c.cfg.Name,
		Requests:   c.m.requests.Load(),
		Dials:      c.m.dials.Load(),
		Reused:     c.m.reused.Load(),
		Retries:    c.m.retrySnapshot(),
		Batches:    c.m.batches.Load(),
		BatchItems: c.m.batchItems.Load(),
		BatchP50:   c.m.batchSize.Quantile(0.50),
		BatchP90:   c.m.batchSize.Quantile(0.90),
		BatchMax:   c.m.batchSize.Max(),
	}
}

// clients tracks live wire clients so the process-wide expvar aggregates
// across them (a router has two: data plane + health; a server has none).
var (
	clientsMu  sync.Mutex
	clients    = make(map[*Client]bool)
	expvarOnce sync.Once
)

func registerClient(c *Client) {
	clientsMu.Lock()
	clients[c] = true
	clientsMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("spocus_wire", expvar.Func(func() any {
			clientsMu.Lock()
			defer clientsMu.Unlock()
			agg := make([]Stats, 0, len(clients))
			for c := range clients {
				agg = append(agg, c.Stats())
			}
			sort.Slice(agg, func(i, j int) bool { return agg[i].Name < agg[j].Name })
			return agg
		}))
	})
}

func unregisterClient(c *Client) {
	clientsMu.Lock()
	delete(clients, c)
	clientsMu.Unlock()
}
