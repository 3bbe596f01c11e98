// Command spocus runs a relational transducer program on a database and an
// input session, printing the run trace in the style of the paper's
// Figures 1 and 2.
//
// Usage:
//
//	spocus -program short.spocus -session session.json [-state] [-json]
//
// The session file is JSON:
//
//	{
//	  "db": {"price": [["time","855"],["newsweek","845"]]},
//	  "inputs": [
//	    {"order": [["time"]]},
//	    {"pay": [["time","855"]]}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/relation"
)

type session struct {
	DB     relation.Instance   `json:"db"`
	Inputs []relation.Instance `json:"inputs"`
}

func main() {
	var (
		programPath = flag.String("program", "", "transducer program file")
		sessionPath = flag.String("session", "", "session JSON file (db + inputs)")
		showState   = flag.Bool("state", false, "print state relations at each step")
		showLog     = flag.Bool("log", true, "print the log at each step")
		asJSON      = flag.Bool("json", false, "emit the run as JSON instead of a trace")
		acceptance  = flag.String("accept", "", "check acceptance: error-free | ok | accept")
	)
	flag.Parse()
	if *programPath == "" || *sessionPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*programPath)
	fatal(err)
	m, err := core.ParseProgram(string(src))
	fatal(err)

	raw, err := os.ReadFile(*sessionPath)
	fatal(err)
	var s session
	fatal(json.Unmarshal(raw, &s))
	if s.DB == nil {
		s.DB = relation.NewInstance()
	}
	inputs := make(relation.Sequence, len(s.Inputs))
	for i, in := range s.Inputs {
		if in == nil {
			in = relation.NewInstance()
		}
		inputs[i] = in
	}

	run, err := m.Execute(s.DB, inputs)
	fatal(err)

	if *asJSON {
		out := struct {
			Machine string              `json:"machine"`
			Kind    string              `json:"kind"`
			Outputs []relation.Instance `json:"outputs"`
			States  []relation.Instance `json:"states"`
			Logs    []relation.Instance `json:"logs"`
		}{m.Name(), m.Kind().String(), run.Outputs, run.States, run.Logs}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(out))
	} else {
		fmt.Printf("transducer %s (%s machine, %d steps)\n", m.Name(), m.Kind(), run.Len())
		fmt.Print(run.FormatTrace(*showState, *showLog))
	}

	if *acceptance != "" {
		mode, err := core.ParseAcceptMode(*acceptance)
		if err != nil {
			fatal(err)
		}
		ok := run.Valid(mode)
		fmt.Printf("run valid under %s: %v\n", mode, ok)
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spocus:", err)
		os.Exit(1)
	}
}
