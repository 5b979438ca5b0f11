// Command chaind runs a single-node development chain (the Kovan stand-in)
// with a small HTTP JSON API, so external tooling can deploy and exercise
// contracts the way the paper's authors used the public testnet.
//
// Endpoints (all JSON):
//
//	GET  /status                      — height, time, gas limit
//	GET  /balance?addr=0x..           — account balance (wei)
//	GET  /nonce?addr=0x..             — account nonce
//	GET  /code?addr=0x..              — contract code (hex)
//	GET  /receipt?tx=0x..             — transaction receipt
//	POST /send      {"rlp": "0x..", "wait": bool} — submit a signed raw
//	                transaction; wait=true blocks until the receipt (or a
//	                dropped-at-execution error) resolves
//	POST /call      {"from","to","data"} — read-only call
//	POST /advance   {"seconds": n}    — advance the simulated clock
//
// Usage:
//
//	chaind -listen :8545 -fund 0xAddr1,0xAddr2
//	chaind -mine batch -mine-interval 250ms -mine-batch 256   # batch-mined blocks
//	chaind -store /var/lib/chaind                             # durable: restart resumes height + log index
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

type server struct {
	chain *chain.Chain
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.WriteHeader(status)
	writeJSON(w, map[string]string{"error": err.Error()})
}

func parseAddr(r *http.Request) (types.Address, error) {
	return types.HexToAddress(r.URL.Query().Get("addr"))
}

func decodeHex(s string) ([]byte, error) {
	s = strings.TrimPrefix(s, "0x")
	return hex.DecodeString(s)
}

func (s *server) status(w http.ResponseWriter, _ *http.Request) {
	head := s.chain.Latest()
	writeJSON(w, map[string]interface{}{
		"height":   s.chain.Height(),
		"time":     s.chain.Now(),
		"gasLimit": s.chain.GasLimit(),
		"headHash": head.Hash().Hex(),
	})
}

func (s *server) balance(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]string{"balance": s.chain.BalanceAt(addr).String()})
}

func (s *server) nonce(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// "nonce" is the value the next transaction must carry — the PENDING
	// nonce, which under -mine batch includes pooled transactions (the
	// state nonce would reject a client pipelining into one block).
	writeJSON(w, map[string]uint64{
		"nonce": s.chain.PendingNonceAt(addr),
		"state": s.chain.NonceAt(addr),
	})
}

func (s *server) code(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]string{"code": "0x" + hex.EncodeToString(s.chain.CodeAt(addr))})
}

func (s *server) receipt(w http.ResponseWriter, r *http.Request) {
	h, err := types.HexToHash(r.URL.Query().Get("tx"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rec, err := s.chain.Receipt(h)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"status":          rec.Status,
		"gasUsed":         rec.GasUsed,
		"contractAddress": rec.ContractAddress.Hex(),
		"logs":            len(rec.Logs),
		"revertReason":    "0x" + hex.EncodeToString(rec.RevertReason),
	})
}

func (s *server) send(w http.ResponseWriter, r *http.Request) {
	var req struct {
		RLP  string `json:"rlp"`
		Wait bool   `json:"wait"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	raw, err := decodeHex(req.RLP)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tx, err := types.DecodeTransaction(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash, err := s.chain.SendTransaction(tx)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := map[string]interface{}{"txHash": hash.Hex()}
	if req.Wait {
		// Block until the batch block carrying the transaction is mined
		// (bounded by the client hanging up). A tx dropped at execution
		// reports the reason instead of leaving the client polling forever.
		rec, err := s.chain.WaitReceipt(r.Context(), hash)
		if err != nil {
			resp["error"] = err.Error()
		} else {
			resp["status"] = rec.Status
			resp["gasUsed"] = rec.GasUsed
			resp["contractAddress"] = rec.ContractAddress.Hex()
		}
	}
	writeJSON(w, resp)
}

func (s *server) call(w http.ResponseWriter, r *http.Request) {
	var req struct {
		From string `json:"from"`
		To   string `json:"to"`
		Data string `json:"data"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	from, err := types.HexToAddress(req.From)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("from: %w", err))
		return
	}
	to, err := types.HexToAddress(req.To)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("to: %w", err))
		return
	}
	data, err := decodeHex(req.Data)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("data: %w", err))
		return
	}
	ret, gasUsed, callErr := s.chain.Call(chain.CallMsg{From: from, To: to, Data: data})
	resp := map[string]interface{}{
		"return":  "0x" + hex.EncodeToString(ret),
		"gasUsed": gasUsed,
	}
	if callErr != nil {
		resp["error"] = callErr.Error()
	}
	writeJSON(w, resp)
}

func (s *server) advance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Seconds uint64 `json:"seconds"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.chain.AdvanceTime(req.Seconds)
	writeJSON(w, map[string]uint64{"time": s.chain.Now()})
}

func main() {
	listen := flag.String("listen", ":8545", "HTTP listen address")
	fund := flag.String("fund", "", "comma-separated addresses funded with 1000 ether at genesis")
	mode := flag.String("mine", "auto", `mining policy: "auto" (a block per transaction) or "batch" (pooled transactions sealed by the background driver)`)
	mineInterval := flag.Duration("mine-interval", 250*time.Millisecond, "batch mode: deadline for sealing a partial block")
	mineBatch := flag.Int("mine-batch", 256, "batch mode: max transactions per block (a full pool seals immediately)")
	telemetryAddr := flag.String("telemetry", "", "optional observability listen address (e.g. :6060) serving /metrics, /healthz, /debug/pprof/*")
	flightDir := flag.String("flight-record", "", "directory for flight-recorder span files (crash forensics; merge across processes with cmd/trace)")
	storeDir := flag.String("store", "", "durable block journal directory: every sealed block is written ahead, and a restart with the same -fund set replays it — height, receipts, and the log index come back without rescanning")
	flag.Parse()

	alloc := map[types.Address]*uint256.Int{}
	if *fund != "" {
		grand := new(uint256.Int).Mul(uint256.NewInt(1000), uint256.NewInt(1e18))
		for _, s := range strings.Split(*fund, ",") {
			addr, err := types.HexToAddress(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad funding address %q: %v", s, err)
			}
			alloc[addr] = grand.Clone()
		}
	}
	ccfg := chain.DefaultConfig()
	switch *mode {
	case "auto":
	case "batch":
		ccfg.AutoMine = false
	default:
		log.Fatalf("unknown -mine mode %q (want auto or batch)", *mode)
	}
	var (
		reg *telemetry.Registry
		tr  *telemetry.Tracer
	)
	if *telemetryAddr != "" || *flightDir != "" {
		reg = telemetry.NewRegistry()
		reg.RegisterRuntimeMetrics()
		reg.PublishExpvar("chaind")
		tr = telemetry.NewTracer(0)
		ccfg.Telemetry = reg
		ccfg.Tracer = tr
	}
	if *flightDir != "" {
		fr, err := telemetry.NewFlightRecorder(*flightDir, "chaind", nil)
		if err != nil {
			log.Fatalf("flight recorder: %v", err)
		}
		defer fr.Close()
		fr.RegisterMetrics(reg)
		tr.Tee(fr.Record)
	}
	c := chain.New(ccfg, alloc)
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Telemetry: reg})
		if err != nil {
			log.Fatalf("open block journal: %v", err)
		}
		defer st.Close()
		recs, err := st.Replay()
		if err != nil {
			log.Fatalf("replay block journal: %v", err)
		}
		n, err := chain.RestoreChain(c, recs)
		if err != nil {
			log.Fatalf("restore chain: %v", err)
		}
		if n > 0 {
			scanned, _ := c.LogScanStats()
			log.Printf("chaind: restored %d blocks from %s (height %d, log index rebuilt, %d blocks rescanned)",
				n, *storeDir, c.Height(), scanned)
		}
		c.AttachJournal(st.Append, func(err error) { log.Printf("chaind: block journal write failed: %v", err) })
	}
	if *mode == "batch" {
		if err := c.StartMining(*mineInterval, *mineBatch); err != nil {
			log.Fatalf("start mining: %v", err)
		}
		defer c.StopMining()
	}
	srv := &server{chain: c}

	mux := http.NewServeMux()
	mux.HandleFunc("/status", srv.status)
	mux.HandleFunc("/balance", srv.balance)
	mux.HandleFunc("/nonce", srv.nonce)
	mux.HandleFunc("/code", srv.code)
	mux.HandleFunc("/receipt", srv.receipt)
	mux.HandleFunc("/send", srv.send)
	mux.HandleFunc("/call", srv.call)
	mux.HandleFunc("/advance", srv.advance)

	if *telemetryAddr != "" {
		tsrv, err := telemetry.Serve(*telemetryAddr, reg, tr)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		defer tsrv.Close()
		log.Printf("chaind: telemetry on http://%s/metrics", tsrv.Addr())
	}

	log.Printf("chaind: dev chain listening on %s (funded accounts: %d)", *listen, len(alloc))
	log.Fatal(http.ListenAndServe(*listen, mux))
}
