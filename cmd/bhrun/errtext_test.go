package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bohrium"
	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/server"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
	"bohrium/internal/vm"
)

// invalidListings are two programs that read a register nothing defined:
// on the first no rewrite rule fires, on the second add-merge does. Each
// host reports them with the text pinned here, wherever in its pipeline
// the program is validated.
var invalidListings = []struct {
	name, src string
	// resolver is Resolve's error, fused or not; optimizer marks an
	// *OptimizeError (otherwise the error wraps vm.ErrExec).
	resolver  string
	optimizer bool
	// host is the parse-time check's text, which bhrun returns and bhd
	// puts in a 400 invalid_program envelope.
	host string
}{
	{
		name: "no rule fires",
		src: `.reg a0 float64 4
.reg a1 float64 4
BH_ADD a1 a0 1
BH_SYNC a1
`,
		resolver: "vm: execution error: bytecode: invalid program: instr 0 (BH_ADD a1 [0:4:1] a0 [0:4:1] 1): input 1 reads undefined or freed register a0",
		host:     "bytecode: invalid program: instr 0 (BH_ADD a1 [0:4:1] a0 [0:4:1] 1): input 1 reads undefined or freed register a0",
	},
	{
		name: "a rule fires",
		src: `.reg a0 float64 4
BH_ADD a0 a0 1
BH_ADD a0 a0 2
BH_SYNC a0
`,
		resolver:  "rewrite: pipeline error: rule add-merge produced invalid program: bytecode: invalid program: instr 0 (BH_ADD a0 [0:4:1] a0 [0:4:1] 3): input 1 reads undefined or freed register a0",
		optimizer: true,
		host:      "bytecode: invalid program: instr 0 (BH_ADD a0 [0:4:1] a0 [0:4:1] 1): input 1 reads undefined or freed register a0",
	},
}

// TestInvalidListingErrorText pins each host's error for an invalid
// program: the Resolver fused and unfused, bhd's envelope and bhrun.
func TestInvalidListingErrorText(t *testing.T) {
	rt := bohrium.NewRuntime(nil)
	defer rt.Close()
	srv, err := server.New(server.Config{
		Runtime:         rt,
		Auth:            middleware.StaticTokens{"secret": "tenant"},
		JanitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	post := func(path string, body []byte) (int, []byte) {
		req, err := http.NewRequest("POST", hs.URL+path, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer secret")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	for _, tc := range invalidListings {
		t.Run(tc.name, func(t *testing.T) {
			for _, fusion := range []bool{true, false} {
				name := fmt.Sprintf("fusion=%v", fusion)
				eng := vm.NewEngine(vm.EngineConfig{})
				defer eng.Close()
				be := backend.New(eng, backend.Config{VM: vm.Config{Fusion: fusion}})
				defer be.Close()
				r := backend.NewResolver(be, backend.Signature{Scope: "pin", Options: rewrite.DefaultOptions(), Fusion: fusion}, nil, nil)
				p := bytecode.MustParse(tc.src)
				_, err := r.Resolve(p, r.Key(p))
				var oe *backend.OptimizeError
				switch {
				case err == nil:
					t.Fatalf("%s: Resolve accepted the program", name)
				case err.Error() != tc.resolver:
					t.Errorf("%s: Resolve error\n%s\nwant\n%s", name, err, tc.resolver)
				case errors.As(err, &oe) != tc.optimizer:
					t.Errorf("%s: Resolve error %T, optimizer error %v", name, err, tc.optimizer)
				case !tc.optimizer && !errors.Is(err, vm.ErrExec):
					t.Errorf("%s: Resolve error does not wrap vm.ErrExec", name)
				}
			}

			body, _ := json.Marshal(api.CreateSession{Optimize: true})
			status, data := post("/v1/sessions", body)
			var sess api.Session
			if status != http.StatusCreated || json.Unmarshal(data, &sess) != nil {
				t.Fatalf("create session: %d %s", status, data)
			}
			status, data = post("/v1/sessions/"+sess.ID+"/batches", []byte(tc.src))
			env, err := api.DecodeError(data)
			if err != nil {
				t.Fatalf("bhd: status %d, no envelope: %v\n%s", status, err, data)
			}
			if status != http.StatusBadRequest || env.Status != status || env.Code != api.CodeInvalid || env.Message != tc.host {
				t.Errorf("bhd: %d %q %q, want 400 %q %q", status, env.Code, env.Message, api.CodeInvalid, tc.host)
			}

			for _, args := range [][]string{nil, {"-O"}, {"-O", "-no-fusion"}} {
				err := run(args, strings.NewReader(tc.src), io.Discard)
				if err == nil || err.Error() != tc.host {
					t.Errorf("bhrun %v: error %v, want %q", args, err, tc.host)
				}
			}
		})
	}
}
